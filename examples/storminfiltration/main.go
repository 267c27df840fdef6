// Storminfiltration: the §7.1 "unexpected visitors" discovery. A Storm
// C&C-relaying proxy bot runs with outside reachability preserved (the
// requirement for becoming a relay agent) and all non-C&C outbound
// activity reflected to the catch-all sink. When an upstream botmaster
// pushes an FTP iframe-injection job through the proxy, the sink — not the
// victim web server — receives the attack.
package main

import (
	"fmt"
	"time"

	"gq"
	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/nat"
)

func main() {
	ccAddr := gq.MustParseAddr("198.51.100.80")
	var masterHost *host.Host
	f, err := gq.Spec{
		Layout: gq.Layout{Seed: 7},
		External: []gq.ExternalHost{
			{Name: "storm-cc", Addr: ccAddr},
			{Name: "botmaster", Addr: gq.MustParseAddr("198.51.100.90"),
				Serve: func(_ *gq.Farm, h *host.Host) error { masterHost = h; return nil }},
			// The would-be victim: a small business FTP/web host. Under
			// proper containment it never hears from our proxy.
			{Name: "victim-site", Addr: gq.MustParseAddr("203.0.113.21")},
		},
		Subfarms: []gq.SubfarmSpec{{
			SubfarmConfig: gq.SubfarmConfig{
				Name:   "Stormfarm",
				VLANLo: 40, VLANHi: 44,
				ServiceVLAN:  13,
				GlobalPool:   gq.MustParsePrefix("192.0.3.0/24"),
				InboundMode:  nat.ForwardInbound, // proxies must be reachable
				PolicyConfig: "[VLAN 40-44]\nDecider = Storm\nInfection = storm.*.exe\n",
				SampleLibrary: []*gq.Sample{
					gq.NewSample("storm.080601.exe", "storm-proxy", []byte("MZ-storm")),
				},
				RepeatBatches: true,
				CCHosts:       map[string]gq.AddrPort{"Storm": {Addr: ccAddr, Port: 80}},
			},
			Inmates: []string{"storm-proxy-0"},
		}},
	}.Build()
	if err != nil {
		panic(err)
	}
	sf := f.Subfarms[0]
	bot := sf.Inmates[sf.InmateVLANs()[0]]

	f.Run(2 * time.Minute)
	fmt.Printf("proxy bot infected with %s, reachable at %s\n",
		bot.SampleName, sf.Router.NAT().ByVLAN(bot.VLAN).Global)

	// June 2008: the upstream botmaster has new plans for "harmless"
	// proxy bots.
	master := malware.NewStormMaster(masterHost)
	master.SendRelayJob(sf.Router.NAT().ByVLAN(bot.VLAN).Global,
		gq.MustParseAddr("203.0.113.21"), 21, []byte(malware.FTPInjectionPayload))
	f.Run(5 * time.Minute)

	proxy := bot.Specimen.(*malware.StormProxy)
	fmt.Printf("\nproxy received %d relay job(s) and opened %d outbound relay(s)\n",
		proxy.JobsReceived, proxy.RelaysOpened)

	hits := sf.CatchAll.FlowsMatching("iframe")
	if len(hits) == 0 {
		fmt.Println("no injection observed — containment failed?!")
		return
	}
	fmt.Println("\ncatch-all sink captured the relayed attack instead of the victim:")
	for _, h := range hits {
		fmt.Printf("  flow to port %d from %s:\n  %q\n", h.Port, h.Src, h.First)
	}
	fmt.Println("\n\"At the time, articles on Storm frequently stated that its proxy")
	fmt.Println("bots did not themselves engage in malicious activity, and a")
	fmt.Println("correspondingly loose containment policy would have allowed these")
	fmt.Println("attacks to proceed unhindered.\" — §7.1")
}
