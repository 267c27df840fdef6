// Quickstart: the smallest useful GQ farm. One subfarm under a
// default-deny policy, one inmate that tries to phone home at boot, and a
// look at the per-flow containment verdicts that resulted.
package main

import (
	"fmt"
	"time"

	"gq"
)

func main() {
	f, err := gq.Spec{
		Layout: gq.Layout{Seed: 1},
		// A would-be C&C server on the simulated Internet. Under
		// default-deny nothing will ever reach it.
		External: []gq.ExternalHost{{Name: "evil-cc", Addr: gq.MustParseAddr("203.0.113.5")}},
		Subfarms: []gq.SubfarmSpec{{
			SubfarmConfig: gq.SubfarmConfig{
				Name:   "quickstart",
				VLANLo: 16, VLANHi: 20,
				GlobalPool: gq.MustParsePrefix("192.0.2.0/24"),
				// No policy config: everything falls to the DefaultDeny
				// fallback, which reflects traffic to the catch-all sink so
				// we can observe the specimen without letting it reach anyone.
			},
			Inmates: []string{"specimen-0"},
			// Instead of real malware, the inmate runs a probe at boot: it
			// tries HTTP to the C&C, an SMTP delivery, and an IRC-ish port.
			OnBoot: func(fi *gq.FarmInmate) {
				for _, port := range []uint16{80, 25, 6667} {
					c := fi.Host.Dial(gq.MustParseAddr("203.0.113.5"), port)
					c.OnConnect = func() {
						c.Write([]byte(fmt.Sprintf("phone-home on port %d\n", port)))
					}
				}
			},
		}},
	}.Build()
	if err != nil {
		panic(err)
	}
	sf := f.Subfarms[0]

	f.Run(1 * time.Minute)

	fmt.Println("Per-flow containment verdicts:")
	for _, rec := range sf.Router.Records() {
		if rec.Verdict == 0 {
			continue
		}
		fmt.Printf("  %s:%d -> %s:%d  %-8s policy=%s (%s)\n",
			rec.OrigIP, rec.OrigPort, rec.RespIP, rec.RespPort,
			rec.Verdict, rec.Policy, rec.Annotation)
	}
	fmt.Printf("\nCatch-all sink observed %d flows; first bytes of each:\n", sf.CatchAll.TCPConns)
	for _, fl := range sf.CatchAll.Flows {
		fmt.Printf("  port %-5d %q\n", fl.Port, fl.First)
	}
	fmt.Println("\nNothing reached 203.0.113.5 — that is the point.")
}
