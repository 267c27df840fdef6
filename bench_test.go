package gq_test

// One benchmark per paper artifact (see DESIGN.md §3): each regenerates
// its table or figure end-to-end inside the timed loop, so the reported
// time is the full cost of reproducing that result. The Ablation*
// benchmarks quantify the design choices DESIGN.md §4 calls out.

import (
	"strings"
	"testing"
	"time"

	"gq/internal/containment"
	"gq/internal/experiments"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
	"gq/internal/smtpx"
)

// BenchmarkTable1WormCapture reproduces one Table 1 capture per iteration:
// a fresh honeyfarm, external seeding, and a contained infection chain.
func BenchmarkTable1WormCapture(b *testing.B) {
	spec := malware.Table1[28] // W32.Korgo.Q
	for i := 0; i < b.N; i++ {
		e, err := farm.NewWormExperiment(int64(i), spec, 4)
		if err != nil {
			b.Fatal(err)
		}
		e.Farm.Run(30 * time.Second)
		e.Seed()
		e.Farm.Run(5 * time.Minute)
		if len(e.Infections) < 2 {
			b.Fatalf("iteration %d: chain never formed", i)
		}
	}
}

// BenchmarkFigure1FarmBoot measures assembling the Fig. 1 architecture and
// booting an inmate through DHCP and auto-infection.
func BenchmarkFigure1FarmBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := farm.New(int64(i))
		sf, err := f.AddSubfarm(farm.SubfarmConfig{
			Name: "boot", VLANLo: 16, VLANHi: 20,
			GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
			PolicyConfig: "[VLAN 16-20]\nDecider = DefaultDeny\nInfection = *.exe\n",
			SampleLibrary: []*policy.Sample{
				policy.NewSample("x.exe", "rustock", []byte("MZ")),
			},
			RepeatBatches: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		bot, err := sf.AddInmate("bot")
		if err != nil {
			b.Fatal(err)
		}
		f.Run(30 * time.Second)
		if bot.Family == "" {
			b.Fatal("inmate never infected")
		}
	}
}

// BenchmarkFigure2FlowModes regenerates the six flow-manipulation modes.
func BenchmarkFigure2FlowModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.RunFigure2(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.OK {
				b.Fatalf("mode %s failed", r.Mode)
			}
		}
	}
}

// BenchmarkFigure3Subfarms runs three parallel independent subfarms on one
// gateway.
func BenchmarkFigure3Subfarms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunScalabilityGateway(int64(i), [][2]int{{3, 2}}, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].FlowsAdjudicated == 0 {
			b.Fatal("no flows")
		}
	}
}

// BenchmarkFigure4ShimCodec measures the shim protocol's wire codec.
func BenchmarkFigure4ShimCodec(b *testing.B) {
	req := &shim.Request{
		OrigIP: netstack.MustParseAddr("10.0.0.23"), RespIP: netstack.MustParseAddr("192.150.187.12"),
		OrigPort: 1234, RespPort: 80, VLAN: 12, NoncePort: 42,
	}
	resp := &shim.Response{
		Verdict: shim.Rewrite, PolicyName: "Rustock", Annotation: "C&C filtering",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rb := req.Marshal()
		if _, err := shim.UnmarshalRequest(rb); err != nil {
			b.Fatal(err)
		}
		pb := resp.Marshal()
		if _, _, err := shim.UnmarshalResponse(pb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Rewrite regenerates the Fig. 5 REWRITE packet flow.
func BenchmarkFigure5Rewrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.RunFigure5(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(text, "<= REQ SHIM") || !strings.Contains(text, "<= rewritten request") {
			b.Fatal("rewrite flow incomplete")
		}
	}
}

// BenchmarkFigure6ConfigParse measures the containment configuration
// parser on the paper's exact snippet.
func BenchmarkFigure6ConfigParse(b *testing.B) {
	text := "[VLAN 16-17]\nDecider = Rustock\nInfection = rustock.100921.*.exe\n\n" +
		"[VLAN 18-19]\nDecider = Grum\nInfection = grum.100818.*.exe\n\n" +
		"[VLAN 16-19]\nTrigger = *:25/tcp / 30min < 1 -> revert\n\n" +
		"[Autoinfect]\nAddress = 10.9.8.7\nPort = 6543\n\n" +
		"[BannerSmtpSink]\nAddress = 10.3.1.4\nPort = 2526\n"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := policy.Parse(text)
		if err != nil || len(cfg.VLANRules) != 3 {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Report regenerates the Botfarm activity report (a full
// virtual hour of two-family spambot operation).
func BenchmarkFigure7Report(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunFigure7(experiments.Figure7Config{
			Seed: int64(i), Duration: time.Hour, DropProb: 0.35,
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.SMTPSessions == 0 {
			b.Fatal("no sessions")
		}
	}
}

// benchGatewayScale runs the S1 sweep point (subfarms × inmates).
func benchGatewayScale(b *testing.B, subfarms, inmates int) {
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunScalabilityGateway(int64(i),
			[][2]int{{subfarms, inmates}}, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].FlowsAdjudicated), "verdicts")
	}
}

func BenchmarkScalabilityGateway1x4(b *testing.B) { benchGatewayScale(b, 1, 4) }
func BenchmarkScalabilityGateway3x4(b *testing.B) { benchGatewayScale(b, 3, 4) }
func BenchmarkScalabilityGateway6x4(b *testing.B) { benchGatewayScale(b, 6, 4) }

// benchShardedDense builds a 6-subfarm farm whose inmates continuously
// stream bulk data. Two modes:
//
//   - serial: one event loop, catch-all sinks (the baseline).
//   - sharded: per-subfarm domains, default-deny reflects every stream
//     into the subfarm's own catch-all sink — all bytes domain-local, all
//     six subfarm domains busy, ceiling 6.00 domains/round.
//
// This is the dense-workload counterpart to the S1 sweep: S1 measures a
// realistic (sparse) malware workload, this one measures the sharding
// ceiling.
func benchShardedDense(b *testing.B, sharded bool) {
	const inmates = 4
	const subfarms = 6
	for i := 0; i < b.N; i++ {
		var f *farm.Farm
		if sharded {
			f = farm.NewSharded(int64(i), 0)
		} else {
			f = farm.New(int64(i))
		}
		for s := 0; s < subfarms; s++ {
			lo := uint16(100 + s*40)
			sf, err := f.AddSubfarm(farm.SubfarmConfig{
				Name:   "dense" + string(rune('a'+s)),
				VLANLo: lo, VLANHi: lo + inmates + 2,
				ServiceVLAN:    uint16(10 + s),
				GlobalPool:     netstack.Prefix{Base: netstack.AddrFrom4(192, 0, byte(2+s), 0), Bits: 24},
				FallbackPolicy: "DefaultDeny",
			})
			if err != nil {
				b.Fatal(err)
			}
			// One long-lived outbound bulk flow per inmate, paced by a sim
			// timer so the stream never idles in TIME_WAIT; default-deny
			// reflects it into the subfarm's own catch-all sink, keeping the
			// bytes domain-local and every domain busy for the whole run.
			sf.OnBootHook = func(fi *farm.FarmInmate) {
				c := fi.Host.Dial(netstack.MustParseAddr("203.0.113.80"), 80)
				chunk := make([]byte, 1024)
				fi.Host.Sim().Every(2*time.Millisecond, func() { c.Write(chunk) })
			}
			for j := 0; j < inmates; j++ {
				if _, err := sf.AddInmate("bulk"); err != nil {
					b.Fatal(err)
				}
			}
		}
		f.Run(30 * time.Second)
		for _, sf := range f.Subfarms {
			if sf.CatchAll.TCPConns == 0 {
				b.Fatal("no sink traffic")
			}
		}
		if f.Coord != nil {
			if rounds, windows := f.Coord.Stats(); rounds > 0 {
				b.ReportMetric(float64(windows)/float64(rounds), "domains/round")
			}
		}
	}
}

// BenchmarkShardedFarmDense compares the serial event loop against sharded
// domains on a datapath-saturated farm. The domains/round metric is the
// workload's parallel speedup ceiling, independent of the host's CPU count;
// the wall-clock ratio at -cpu N is the achieved speedup.
func BenchmarkShardedFarmDense(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchShardedDense(b, false) })
	b.Run("sharded", func(b *testing.B) { benchShardedDense(b, true) })
}

func benchCluster(b *testing.B, servers int) {
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunScalabilityCluster(int64(i), []int{servers}, 8, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].PerServerMax), "maxFlowsPerServer")
	}
}

func BenchmarkScalabilityCluster1(b *testing.B) { benchCluster(b, 1) }
func BenchmarkScalabilityCluster4(b *testing.B) { benchCluster(b, 4) }

// BenchmarkScalabilityVLANPool measures exhausting the 802.1Q ID space.
func BenchmarkScalabilityVLANPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, _ := experiments.RunScalabilityVLANPool()
		if n != 4094 {
			b.Fatal("pool size wrong")
		}
	}
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationShimRoundTrip quantifies what the policy/mechanism
// separation costs per flow: the full redirect-to-containment-server shim
// exchange versus invoking the policy decision inline (the predecessor's
// hardwired design).
func BenchmarkAblationShimRoundTrip(b *testing.B) {
	b.Run("containment-server", func(b *testing.B) {
		// Virtual flow-setup latency through the CS, measured once, then
		// the farm run repeated per iteration for wall cost.
		for i := 0; i < b.N; i++ {
			f := farm.New(int64(i))
			f.AddExternalHost("t", netstack.MustParseAddr("203.0.113.80"))
			sf, err := f.AddSubfarm(farm.SubfarmConfig{
				Name: "ab", VLANLo: 16, VLANHi: 18,
				GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
				FallbackPolicy: "HardDeny",
			})
			if err != nil {
				b.Fatal(err)
			}
			sf.OnBootHook = func(fi *farm.FarmInmate) {
				for j := 0; j < 50; j++ {
					fi.Host.Dial(netstack.MustParseAddr("203.0.113.80"), uint16(1000+j))
				}
			}
			sf.AddInmate("probe")
			f.Run(time.Minute)
			if sf.CS.FlowsSeen != 50 {
				b.Fatalf("saw %d flows", sf.CS.FlowsSeen)
			}
		}
	})
	b.Run("inline-policy", func(b *testing.B) {
		// The hardwired alternative: the verdict is computed in-process
		// with no shim exchange. This is what the gateway saves per flow
		// when policies never change — and what GQ gave up for
		// adaptability.
		env := &policy.Env{InternalPrefix: netstack.MustParsePrefix("10.0.0.0/16")}
		d, err := policy.New("HardDeny", env)
		if err != nil {
			b.Fatal(err)
		}
		req := &shim.Request{
			OrigIP: netstack.MustParseAddr("10.0.0.23"), OrigPort: 1234,
			RespIP: netstack.MustParseAddr("203.0.113.80"), RespPort: 1000, VLAN: 16,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 50; j++ {
				if dec := d.Decide(req); dec.Verdict == 0 {
					b.Fatal("no verdict")
				}
			}
		}
	})
}

// BenchmarkAblationFullProxy compares gateway-enforced endpoint control
// (FORWARD: the CS drops out after the verdict) against keeping the CS in
// the path for the whole flow (REWRITE with a pass-through handler) — the
// §5.4 rationale for endpoint control "conserving resources on the
// containment server".
func BenchmarkAblationFullProxy(b *testing.B) {
	b.Run("forward-spliced", func(b *testing.B) { benchBulk(b, "AllowAll") })
	b.Run("rewrite-proxied", func(b *testing.B) { benchBulk(b, "PassThroughProxy") })
}

// passThroughHandler proxies content without modification — the cost of
// content control without its benefit.
type passThroughHandler struct{}

func (passThroughHandler) OnClientData(s *containment.Session, d []byte) { s.WriteServer(d) }
func (passThroughHandler) OnServerData(s *containment.Session, d []byte) { s.WriteClient(d) }
func (passThroughHandler) OnClientClose(s *containment.Session)          { s.CloseServer() }
func (passThroughHandler) OnServerClose(s *containment.Session)          { s.CloseClient() }

type passThroughDecider struct{}

func (passThroughDecider) Name() string { return "PassThroughProxy" }
func (passThroughDecider) Decide(req *shim.Request) containment.Decision {
	return containment.Decision{Verdict: shim.Rewrite, Handler: passThroughHandler{}}
}

func init() {
	policy.Register("PassThroughProxy", func(env *policy.Env) containment.Decider {
		return passThroughDecider{}
	})
}

// benchBulk pushes 256 KiB through one contained flow per iteration.
func benchBulk(b *testing.B, decider string) {
	const payload = 256 << 10
	for i := 0; i < b.N; i++ {
		f := farm.New(int64(i))
		target := f.AddExternalHost("t", netstack.MustParseAddr("203.0.113.80"))
		received := 0
		target.Listen(80, func(c *host.Conn) {
			c.OnData = func(d []byte) { received += len(d) }
			c.OnPeerClose = func() { c.Close() }
		})
		sf, err := f.AddSubfarm(farm.SubfarmConfig{
			Name: "bulk", VLANLo: 16, VLANHi: 18,
			GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
			FallbackPolicy: decider,
		})
		if err != nil {
			b.Fatal(err)
		}
		sf.OnBootHook = func(fi *farm.FarmInmate) {
			c := fi.Host.Dial(netstack.MustParseAddr("203.0.113.80"), 80)
			buf := make([]byte, payload)
			c.OnConnect = func() { c.Write(buf); c.Close() }
		}
		sf.AddInmate("bulk")
		f.Run(5 * time.Minute)
		if received != payload {
			b.Fatalf("%s: received %d of %d", decider, received, payload)
		}
		b.SetBytes(payload)
	}
}

// BenchmarkSpamThroughput measures end-to-end harvested spam per virtual
// hour across the whole stack (sanity throughput number for EXPERIMENTS.md).
func BenchmarkSpamThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunFigure7(experiments.Figure7Config{
			Seed: int64(i), Duration: time.Hour, DropProb: 0,
			RustockInmates: 2, GrumInmates: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(out.SMTPDataTransfers), "msgs/vhour")
	}
}

// BenchmarkSMTPEngine isolates the SMTP sink protocol engine.
func BenchmarkSMTPEngine(b *testing.B) {
	lines := []string{
		"HELO bot", "MAIL FROM:<a@b.c>", "RCPT TO:<v@x.y>", "DATA",
		"Subject: x", "", "body", ".", "QUIT",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var replies int
		eng := smtpx.NewEngine(smtpx.Lenient, func(string) { replies++ }, nil)
		eng.Greet("220 bench")
		for _, l := range lines {
			eng.Feed([]byte(l + "\r\n"))
		}
		if eng.Envelopes != 1 {
			b.Fatal("engine broke")
		}
	}
}

// BenchmarkReportGeneration isolates the Fig. 7 renderer on the Fig. 7
// Botfarm (the farm is built and run outside the timed loop).
func BenchmarkReportGeneration(b *testing.B) {
	f, err := experiments.Figure7Farm(experiments.Figure7Config{Seed: 1, DropProb: 0.35})
	if err != nil {
		b.Fatal(err)
	}
	f.Run(30 * time.Minute)
	rep := f.Reporter(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if text := rep.Generate(); len(text) == 0 {
			b.Fatal("empty report")
		}
	}
}
