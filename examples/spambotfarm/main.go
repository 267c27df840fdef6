// Spambotfarm: the paper's Fig. 6/Fig. 7 "Botfarm" built against the
// public API — Rustock and Grum inmates under per-family containment
// policies, auto-infection from sample batches, SMTP sinks harvesting the
// spam, activity triggers reverting quiet inmates, and the Fig. 7 report.
package main

import (
	"fmt"
	"time"

	"gq"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
)

func main() {
	// Botmaster-side infrastructure on the simulated Internet: the
	// SteepHost.Net C&C of Fig. 7, with this campaign's template.
	steephost := gq.ExternalHost{Name: "steephost", Addr: farm.SteephostAddr, Serve: func(_ *gq.Farm, h *host.Host) error {
		_, err := malware.NewCCServer(h, malware.CCConfig{
			Template: "vip pharmacy",
			Targets: []netstack.Addr{
				gq.MustParseAddr("203.0.113.25"),
				gq.MustParseAddr("203.0.113.26"),
			},
			Forbidden: []string{"DDOS 203.0.113.99", "PROXY 203.0.113.98:1080"},
		})
		return err
	}}

	// The Botfarm under the Fig. 6 text for two Rustock and two Grum inmates.
	botfarm := farm.Botfarm()
	botfarm.PolicyConfig = farm.BotfarmPolicy(2, 2)
	botfarm.VLANLo, botfarm.VLANHi = 16, 24
	botfarm.SampleLibrary = []*gq.Sample{
		gq.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-rustock-1")),
		gq.NewSample("rustock.100921.002.exe", "rustock", []byte("MZ-rustock-2")),
		gq.NewSample("grum.100818.001.exe", "grum", []byte("MZ-grum-1")),
	}
	botfarm.SinkDropProb = 0.35 // Fig. 7: flows exceed completed sessions
	botfarm.Inmates = []string{"bot-0", "bot-1", "bot-2", "bot-3"}

	f, err := gq.Spec{
		Layout:   gq.Layout{Seed: 42},
		External: []gq.ExternalHost{steephost},
		Subfarms: []gq.SubfarmSpec{botfarm},
	}.Build()
	if err != nil {
		panic(err)
	}
	sf := f.Subfarms[0]

	fmt.Println("running the Botfarm for 2 virtual hours...")
	f.Run(2 * time.Hour)

	fmt.Println(f.Reporter(true).Generate())

	fmt.Printf("harvested spam: %d envelopes at the simple sink, %d at the banner sink\n",
		sf.SMTPSink.DataTransfers, sf.BannerSink.DataTransfers)
	if len(sf.SMTPSink.Envelopes) > 0 {
		env := sf.SMTPSink.Envelopes[0]
		fmt.Printf("first harvested message: HELO=%q FROM=%q RCPT=%s\n",
			env.Helo, env.From, env.Rcpts)
	}
	fmt.Printf("life-cycle actions handled by the inmate controller: %d\n",
		f.Controller.Actions)
}
