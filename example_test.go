package gq_test

import (
	"fmt"
	"time"

	"gq"
)

// Example demonstrates the minimal farm: one inmate under default-deny
// containment, with the per-flow verdicts inspected afterwards.
func Example() {
	f, err := gq.Spec{
		Layout:   gq.Layout{Seed: 1},
		External: []gq.ExternalHost{{Name: "cc", Addr: gq.MustParseAddr("203.0.113.5")}},
		Subfarms: []gq.SubfarmSpec{{
			SubfarmConfig: gq.SubfarmConfig{
				Name:   "demo",
				VLANLo: 16, VLANHi: 20,
				GlobalPool: gq.MustParsePrefix("192.0.2.0/24"),
			},
			Inmates: []string{"specimen"},
			OnBoot: func(fi *gq.FarmInmate) {
				c := fi.Host.Dial(gq.MustParseAddr("203.0.113.5"), 6667)
				c.OnConnect = func() { c.Write([]byte("JOIN #botnet")) }
			},
		}},
	}.Build()
	if err != nil {
		panic(err)
	}
	sf := f.Subfarms[0]
	f.Run(time.Minute)

	for _, rec := range sf.Router.Records() {
		if rec.Verdict != 0 {
			fmt.Printf("%s -> %s:%d  %s (%s)\n",
				rec.Policy, rec.RespIP, rec.RespPort, rec.Verdict, rec.Annotation)
		}
	}
	fmt.Printf("sink absorbed %d flows\n", sf.CatchAll.TCPConns)
	// Output:
	// DefaultDeny -> 203.0.113.5:6667  REFLECT (default-deny reflection)
	// sink absorbed 1 flows
}
