package farm

// Tests in this file reproduce the operational experiences of §7.1: the
// containment-derived insights GQ's six years of operation surfaced.

import (
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/nat"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/smtpx"
)

// waledacFarm builds a subfarm running one Waledac inmate under the given
// policy, with a real (simulated) GMail MX outside.
func waledacFarm(t *testing.T, seed int64, decider string) (*Farm, *Subfarm, *FarmInmate, *malware.GMailMX) {
	t.Helper()
	f := New(seed)
	gmailAddr := netstack.MustParseAddr("172.217.0.25")
	gmailHost := f.AddExternalHost("gmail", gmailAddr)
	gmail, err := malware.NewGMailMX(gmailHost, []string{"wergvan"})
	if err != nil {
		t.Fatal(err)
	}
	// The GMail operator feeds the CBL: fingerprinted HELOs get their
	// senders listed (§7.1 "mysterious blacklisting").
	gmail.OnFingerprint = func(sender netstack.Addr, helo string) {
		f.CBL.List(sender, "recognisable HELO "+helo+" fingerprinted by receiving MX")
	}

	sf, err := f.AddSubfarm(SubfarmConfig{
		Name:   "Waledacfarm",
		VLANLo: 20, VLANHi: 24,
		ServiceVLAN:  12,
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig: "[VLAN 20-24]\nDecider = " + decider + "\nInfection = waledac.*.exe\n",
		SampleLibrary: []*policy.Sample{
			policy.NewSample("waledac.090601.exe", "waledac", []byte("MZ-waledac")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"GMailMX": {Addr: gmailAddr, Port: 25},
		},
		GMailMX:        gmailAddr,
		SpamTargets:    []netstack.Addr{netstack.MustParseAddr("203.0.113.25")},
		SinkStrictness: smtpx.Lenient,
	})
	if err != nil {
		t.Fatal(err)
	}
	bot, err := sf.AddInmate("waledac-0")
	if err != nil {
		t.Fatal(err)
	}
	return f, sf, bot, gmail
}

// X1: "Mysterious blacklisting" — permitting even a single seemingly
// innocuous test SMTP message to GMail gets the inmate's global address
// onto the CBL, because the HELO string is fingerprinted remotely.
func TestWaledacBlacklisting(t *testing.T) {
	f, sf, bot, gmail := waledacFarm(t, 31, "WaledacTestSMTP")
	f.Run(30 * time.Minute)

	if gmail.Deliveries == 0 {
		t.Fatal("the permitted test message never arrived")
	}
	global := sf.Router.NAT().ByVLAN(bot.VLAN).Global
	if !f.CBL.Listed(global) {
		t.Fatalf("inmate %v not listed despite fingerprinted HELO", global)
	}
	// The report surfaces the containment failure.
	text := f.Reporter(false).Generate()
	if !strings.Contains(text, "WARNING") || !strings.Contains(text, "CBL") {
		t.Fatalf("report does not warn about the listing:\n%s", text)
	}
	// The consequence: GQ "stopped the policy of allowing even seemingly
	// innocuous non-spam test SMTP exchanges". The tightened policy keeps
	// the farm clean.
	f2, sf2, bot2, gmail2 := waledacFarm(t, 32, "Waledac")
	f2.Run(30 * time.Minute)
	if gmail2.Deliveries != 0 {
		t.Fatal("tightened policy leaked SMTP to GMail")
	}
	if f2.CBL.ListedCount() != 0 {
		t.Fatal("tightened policy still got inmates listed")
	}
	// And the bot went dormant (its probe was contained) — the fidelity
	// cost of tight containment the paper discusses.
	_ = sf2
	if sp, ok := bot2.Specimen.(interface{ Family() string }); !ok || sp.Family() != "waledac" {
		t.Fatal("specimen missing")
	}
	_ = sf
}

// X2: "Unexpected visitors" — a Storm proxy inmate receives a SOCKS-style
// relay job for FTP iframe injection from an upstream botmaster; the
// containment policy reflects the outbound FTP to the catch-all sink,
// where the attack becomes visible (and harmless).
func TestStormIframeInjection(t *testing.T) {
	f := New(33)
	ccAddr := netstack.MustParseAddr("198.51.100.80")
	f.AddExternalHost("storm-cc", ccAddr) // HTTP C&C endpoint (no listener needed for poll fidelity)
	masterHost := f.AddExternalHost("botmaster", netstack.MustParseAddr("198.51.100.90"))

	sf, err := f.AddSubfarm(SubfarmConfig{
		Name:   "Stormfarm",
		VLANLo: 40, VLANHi: 44,
		ServiceVLAN:  13,
		GlobalPool:   netstack.MustParsePrefix("192.0.3.0/24"),
		InboundMode:  nat.ForwardInbound,
		PolicyConfig: "[VLAN 40-44]\nDecider = Storm\nInfection = storm.*.exe\n",
		SampleLibrary: []*policy.Sample{
			policy.NewSample("storm.080601.exe", "storm-proxy", []byte("MZ-storm")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Storm": {Addr: ccAddr, Port: 80},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bot, err := sf.AddInmate("storm-0")
	if err != nil {
		t.Fatal(err)
	}
	f.Run(2 * time.Minute) // boot + infection

	if bot.Family != "storm-proxy" {
		t.Fatalf("family %q", bot.Family)
	}
	// The upstream botmaster pushes the injection job to the proxy's
	// public address.
	global := sf.Router.NAT().ByVLAN(bot.VLAN).Global
	master := malware.NewStormMaster(masterHost)
	victimFTP := netstack.MustParseAddr("203.0.113.21")
	master.SendRelayJob(global, victimFTP, 21, []byte(malware.FTPInjectionPayload))
	f.Run(5 * time.Minute)

	proxy := bot.Specimen.(*malware.StormProxy)
	if proxy.JobsReceived != 1 || proxy.RelaysOpened != 1 {
		t.Fatalf("jobs=%d relays=%d", proxy.JobsReceived, proxy.RelaysOpened)
	}
	// The FTP attempt arrived at the sink, not the victim.
	hits := sf.CatchAll.FlowsMatching("iframe")
	if len(hits) != 1 || hits[0].Port != 21 {
		t.Fatalf("injection not captured at sink: %+v", sf.CatchAll.Flows)
	}
}

// X3/X4: the fidelity ladder — silent sink, wrong banner, plausible static
// banner, grabbed real banner — determines which rungs keep a
// banner-sensitive specimen alive (§7.1 "satisfying fidelity").
func TestFidelityLadder(t *testing.T) {
	run := func(seed int64, cfgFn func(*SubfarmConfig)) (*Subfarm, *FarmInmate, *Farm) {
		f := New(seed)
		gmailAddr := netstack.MustParseAddr("172.217.0.25")
		gmailHost := f.AddExternalHost("gmail", gmailAddr)
		malware.NewGMailMX(gmailHost, nil)
		// A "real" corporate MX outside, for banner grabbing.
		mxHost := f.AddExternalHost("realmx", netstack.MustParseAddr("203.0.113.25"))
		mxHost.Listen(25, func(c *host.Conn) { smtpx.Bind(c, smtpx.Lenient).Greet("220 mx.realcorp.example ESMTP") })

		cfg := SubfarmConfig{
			Name:   "ladder",
			VLANLo: 20, VLANHi: 22,
			ServiceVLAN:  12,
			GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
			InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
			PolicyConfig: "[VLAN 20-22]\nDecider = Waledac\nInfection = *.exe\n",
			SampleLibrary: []*policy.Sample{
				policy.NewSample("waledac.exe", "waledac", []byte("MZ"))},
			RepeatBatches:  true,
			CCHosts:        map[string]policy.AddrPort{"GMailMX": {Addr: gmailAddr, Port: 25}},
			GMailMX:        gmailAddr,
			SpamTargets:    []netstack.Addr{netstack.MustParseAddr("203.0.113.25")},
			SinkStrictness: smtpx.Lenient,
		}
		cfgFn(&cfg)
		sf, err := f.AddSubfarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bot, err := sf.AddInmate("w0")
		if err != nil {
			t.Fatal(err)
		}
		f.Run(45 * time.Minute)
		return sf, bot, f
	}

	// Waledac probes GMail first. Its probe is contained (Waledac policy
	// reflects all SMTP to the banner sink) — so the probe's fate depends
	// on the sink's fidelity toward the GMail banner.
	t.Run("wrong-banner-goes-dormant", func(t *testing.T) {
		sf, bot, _ := run(41, func(cfg *SubfarmConfig) {
			cfg.BannerGrab = false // static non-Google banner
		})
		w := bot.Specimen
		if w == nil {
			t.Fatal("no specimen")
		}
		if sf.BannerSink.DataTransfers != 0 {
			t.Fatalf("dormant bot delivered %d messages", sf.BannerSink.DataTransfers)
		}
	})
	t.Run("grabbed-banner-keeps-bot-alive", func(t *testing.T) {
		sf, _, _ := run(42, func(cfg *SubfarmConfig) {
			cfg.BannerGrab = true
		})
		if sf.BannerSink.GrabAttempts == 0 {
			t.Fatal("sink never grabbed a banner")
		}
		if sf.BannerSink.DataTransfers == 0 {
			t.Fatal("banner-grabbing sink failed to keep the specimen spamming")
		}
	})
}

// X3: protocol violations at farm level — a strict sink shows healthy
// connection-level activity but a meagre content level for sloppy bots.
func TestSMTPLeniencyFarm(t *testing.T) {
	build := func(seed int64, strict smtpx.Strictness) *Subfarm {
		f := New(seed)
		ccAddr := netstack.MustParseAddr("50.8.207.91")
		cc := f.AddExternalHost("cc", ccAddr)
		malware.NewCCServer(cc, malware.CCConfig{Template: "w",
			Targets: []netstack.Addr{netstack.MustParseAddr("203.0.113.25")}})
		sf, err := f.AddSubfarm(SubfarmConfig{
			Name: "grumfarm", VLANLo: 18, VLANHi: 19, ServiceVLAN: 12,
			GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
			PolicyConfig: "[VLAN 18-19]\nDecider = Grum\nInfection = *.exe\n",
			SampleLibrary: []*policy.Sample{
				policy.NewSample("grum.exe", "grum", []byte("MZ"))},
			RepeatBatches:  true,
			CCHosts:        map[string]policy.AddrPort{"Grum": {Addr: ccAddr, Port: 80}},
			SinkStrictness: strict,
		})
		if err != nil {
			t.Fatal(err)
		}
		sf.AddInmate("g0")
		f.Run(20 * time.Minute)
		return sf
	}
	strictFarm := build(51, smtpx.Strict)
	if strictFarm.BannerSink.Sessions == 0 {
		t.Fatal("no sessions under strict sink")
	}
	if strictFarm.BannerSink.DataTransfers != 0 {
		t.Fatalf("strict sink reached DATA %d times for sloppy Grum", strictFarm.BannerSink.DataTransfers)
	}
	lenientFarm := build(52, smtpx.Lenient)
	if lenientFarm.BannerSink.DataTransfers == 0 {
		t.Fatal("lenient sink never reached DATA")
	}
}

// X5: "Unclear phylogenies" — a split-personality specimen run under a
// mismatched policy stays contained: whichever personality it exhibits,
// no spam or unknown C&C escapes.
func TestSplitPersonalityContainment(t *testing.T) {
	for seed := int64(61); seed < 65; seed++ {
		f := New(seed)
		megadCC := netstack.MustParseAddr("198.51.100.77")
		grumCC := netstack.MustParseAddr("50.8.207.91")
		// External hosts exist so routing works; any arriving SMTP would be
		// a leak, checked against flow records below.
		for _, addr := range []netstack.Addr{megadCC, grumCC, netstack.MustParseAddr("203.0.113.25")} {
			f.AddExternalHost("x"+addr.String(), addr)
		}

		sf, err := f.AddSubfarm(SubfarmConfig{
			Name: "phylo", VLANLo: 70, VLANHi: 72, ServiceVLAN: 14,
			GlobalPool: netstack.MustParsePrefix("192.0.4.0/24"),
			// The analyst THINKS it's MegaD.
			PolicyConfig: "[VLAN 70-72]\nDecider = MegaD\nInfection = *.exe\n",
			SampleLibrary: []*policy.Sample{
				policy.NewSample("mystery.100215.exe", "split-personality", []byte("MZ?"))},
			RepeatBatches:  true,
			CCHosts:        map[string]policy.AddrPort{"MegaD": {Addr: megadCC, Port: 4560}},
			SinkStrictness: smtpx.Lenient,
		})
		if err != nil {
			t.Fatal(err)
		}
		bot, _ := sf.AddInmate("mystery")
		f.Run(15 * time.Minute)

		// Whichever personality emerged, zero spam reached the outside:
		// every SMTP flow was reflected.
		for _, rec := range sf.Router.Records() {
			if rec.RespPort == 25 && rec.Verdict != 0 && !rec.Verdict.Has(2 /*drop*/) {
				if rec.ActualRespIP != 0 && !sf.Config.GlobalPool.Contains(rec.ActualRespIP) &&
					!netstack.MustParsePrefix("10.0.0.0/8").Contains(rec.ActualRespIP) {
					t.Fatalf("seed %d: SMTP flow escaped to %v", seed, rec.ActualRespIP)
				}
			}
		}
		// And the mismatch is observable: a Grum personality produces
		// catch-all sink flows to the unexpected Grum C&C.
		sp := bot.Specimen.(interface{ Family() string })
		if sp.Family() != "split-personality" {
			t.Fatalf("family %q", sp.Family())
		}
	}
}
