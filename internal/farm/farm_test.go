package farm

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"gq/internal/inmate"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/report"
	"gq/internal/shim"
	"gq/internal/smtpx"
	"gq/internal/trace"
)

// botfarmConfig reproduces the Fig. 6 setup: Rustock on VLANs 16-17, Grum
// on 18-19, a revert trigger, and the service locations.
const botfarmPolicy = `[VLAN 16-17]
Decider = Rustock
Infection = rustock.100921.*.exe

[VLAN 18-19]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert
`

func sampleLibrary() []*policy.Sample {
	return []*policy.Sample{
		policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-rustock-001")),
		policy.NewSample("rustock.100921.002.exe", "rustock", []byte("MZ-rustock-002")),
		policy.NewSample("grum.100818.001.exe", "grum", []byte("MZ-grum-001")),
	}
}

// buildBotfarm assembles the Fig. 7 Botfarm with external C&C hosts.
func buildBotfarm(t *testing.T, seed int64, dropProb float64) (*Farm, *Subfarm) {
	t.Helper()
	f := New(seed)
	ccAddr := netstack.MustParseAddr("50.8.207.91")
	ccHost := f.AddExternalHost("steephost", ccAddr)
	if _, err := malware.NewCCServer(ccHost, malware.CCConfig{
		Template:  "cheap meds",
		Targets:   []netstack.Addr{netstack.MustParseAddr("203.0.113.25"), netstack.MustParseAddr("203.0.113.26")},
		Forbidden: []string{"DDOS 203.0.113.99", "PROXY 203.0.113.98:1080"},
	}); err != nil {
		t.Fatal(err)
	}

	sf, err := f.AddSubfarm(SubfarmConfig{
		Name:   "Botfarm",
		VLANLo: 16, VLANHi: 30,
		ServiceVLAN:   11,
		GlobalPool:    netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:     netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig:  botfarmPolicy,
		SampleLibrary: sampleLibrary(),
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock": {Addr: ccAddr, Port: 443},
			"Grum":    {Addr: ccAddr, Port: 80},
		},
		SinkDropProb:   dropProb,
		SinkStrictness: smtpx.Lenient,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, sf
}

func TestBotfarmEndToEnd(t *testing.T) {
	f, sf := buildBotfarm(t, 42, 0)
	var frames []trace.Record
	sf.Router.AddTap(func(p *netstack.Packet) { frames = append(frames, trace.Record{Frame: p.Marshal()}) })

	rustockInmate, err := sf.AddInmate("rustock-0")
	if err != nil {
		t.Fatal(err)
	}
	grumInmate, err := sf.AddInmate("grum-0")
	if err != nil {
		t.Fatal(err)
	}
	if rustockInmate.VLAN != 16 || grumInmate.VLAN != 17 {
		t.Fatalf("VLANs %d %d", rustockInmate.VLAN, grumInmate.VLAN)
	}
	// VLAN 17 belongs to the Rustock range; add two more to land in Grum's.
	g2, _ := sf.AddInmate("grum-1")
	if g2.VLAN != 18 {
		t.Fatalf("third inmate VLAN %d", g2.VLAN)
	}

	f.Run(30 * time.Minute)

	// Auto-infection happened and the right families run.
	if rustockInmate.Family != "rustock" || rustockInmate.SampleName != "rustock.100921.001.exe" {
		t.Fatalf("rustock inmate family=%q sample=%q", rustockInmate.Family, rustockInmate.SampleName)
	}
	if g2.Family != "grum" {
		t.Fatalf("grum inmate family=%q", g2.Family)
	}
	if rustockInmate.Specimen == nil || g2.Specimen == nil {
		t.Fatal("specimens not executing")
	}

	// The C&C lifeline worked: bots got their templates through the farm.
	withVerdict := func(v shim.Verdict) int {
		return f.Fold.Flows(sf.Name, func(c report.FlowClass) bool { return c.Verdict.Has(v) })
	}
	forwards, reflects, rewrites := withVerdict(shim.Forward), withVerdict(shim.Reflect), withVerdict(shim.Rewrite)
	if forwards == 0 {
		t.Fatal("no forwarded C&C flows")
	}
	if rewrites < 3 {
		t.Fatalf("rewrites %d; expected at least the three auto-infections", rewrites)
	}
	if reflects == 0 {
		t.Fatal("no reflected spam flows")
	}

	// Spam landed in the sinks, not the Internet: the C&C targets are
	// 203.0.113.x which do not exist — any leak would show as failed
	// handshakes, and containment means the sinks saw sessions.
	total := sf.SMTPSink.Sessions + sf.BannerSink.Sessions
	if total == 0 {
		t.Fatal("no spam harvested")
	}
	// Rustock (simple sink, 3 msgs/session) vs Grum (banner sink, 1).
	if sf.SMTPSink.DataTransfers < 2*sf.SMTPSink.Sessions {
		t.Fatalf("rustock sink DATA=%d sessions=%d", sf.SMTPSink.DataTransfers, sf.SMTPSink.Sessions)
	}

	// The tap-fed SMTP analyzer agrees with the sinks.
	var analyzerSessions uint64
	for _, st := range sf.SMTPAnalyzer.PerInmate {
		analyzerSessions += st.Sessions
	}
	if analyzerSessions != total {
		t.Fatalf("analyzer sessions %d, sinks %d", analyzerSessions, total)
	}

	// The trace audit observed containment requests for every inmate.
	flows := report.AuditTrace(frames, ContainmentPort, sf.CS.Host.Addr()).FlowsByVLAN
	for _, vlan := range []uint16{16, 17, 18} {
		if flows[vlan] == 0 {
			t.Fatalf("no containment requests observed for VLAN %d", vlan)
		}
	}
}

func TestFigure7Report(t *testing.T) {
	f, sf := buildBotfarm(t, 7, 0.3)
	sf.AddInmate("rustock-0")
	g, _ := sf.AddInmate("x")
	_ = g
	grum, _ := sf.AddInmate("grum-0") // VLAN 18
	_ = grum
	f.Run(time.Hour)

	rep := f.Reporter(true)
	text := rep.Generate()

	for _, want := range []string{
		"Inmate Activity",
		"Active subfarms: Botfarm",
		"Subfarm 'Botfarm' [Containment server VLAN 11]",
		"Rustock [xxx.yyy.",
		"Grum [xxx.yyy.",
		"VLAN 16",
		"VLAN 18",
		"FORWARD",
		"REFLECT",
		"REWRITE",
		"autoinfection ",
		"SMTP sessions",
		"SMTP DATA transfers",
		"C&C",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q\n----\n%s", want, text)
		}
	}
	// Internal addresses appear unanonymised; globals masked.
	if !strings.Contains(text, "/10.0.0.") {
		t.Errorf("internal addresses missing:\n%s", text)
	}
	if strings.Contains(text, "192.0.2.") {
		t.Errorf("global addresses leaked unanonymised:\n%s", text)
	}

	// The Fig. 7 numeric shape: with a dropping sink, REFLECTed flows
	// exceed completed SMTP sessions.
	reflected := f.Fold.Flows(sf.Name, func(c report.FlowClass) bool {
		return c.Verdict.Has(shim.Reflect) && c.Port == 25
	})
	var sessions uint64
	for _, st := range sf.SMTPAnalyzer.PerInmate {
		sessions += st.Sessions
	}
	if reflected == 0 || uint64(reflected) <= sessions {
		t.Fatalf("reflected=%d sessions=%d: dropping sink must make flows exceed sessions",
			reflected, sessions)
	}
}

func TestTriggerRevertsQuietInmate(t *testing.T) {
	f, sf := buildBotfarm(t, 9, 0)
	// An inmate whose sample batch is empty: it boots, auto-infection is
	// refused (batch exhausted -> DROP), it never spams, and the 30-minute
	// absence trigger reverts it.
	sf.Config.SampleLibrary = nil
	bot, err := sf.AddInmate("quiet")
	if err != nil {
		t.Fatal(err)
	}
	f.Run(100 * time.Minute)
	if bot.Generation == 0 {
		t.Fatalf("quiet inmate was never reverted (gen=%d, state %v)", bot.Generation, bot.State)
	}
	if f.Sim.Obs().Reg.Counter("cs.triggers_fired").Value() == 0 {
		t.Fatal("trigger engine never fired")
	}
	// The action travelled over the management network.
	if f.Controller.Actions == 0 {
		t.Fatal("the inmate controller handled no action")
	}
}

func TestBatchServesSequentially(t *testing.T) {
	f, sf := buildBotfarm(t, 11, 0)
	bot, _ := sf.AddInmate("rustock-0")
	f.Run(time.Minute)
	if bot.SampleName != "rustock.100921.001.exe" {
		t.Fatalf("first sample %q", bot.SampleName)
	}
	// Force a revert: the next infection serves the next batch entry.
	bot.Revert()
	f.Run(5 * time.Minute)
	if bot.SampleName != "rustock.100921.002.exe" {
		t.Fatalf("second sample %q", bot.SampleName)
	}
}

func TestRawIronInmateInFarm(t *testing.T) {
	f, sf := buildBotfarm(t, 13, 0)
	// Raw-iron backends behave identically from the farm's perspective,
	// just slower to revert.
	b := &inmate.QEMUBackend{Sim: f.Sim}
	bot, err := sf.AddInmateWithBackend("emu-0", b)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(10 * time.Minute)
	if bot.Family == "" {
		t.Fatal("emulated inmate never infected")
	}
}

func TestSubfarmIsolation(t *testing.T) {
	// Fig. 3: parallel subfarms with disjoint VLAN sets operate
	// independently: distinct policies, distinct records.
	f := New(21)
	ccAddr := netstack.MustParseAddr("50.8.207.91")
	cc := f.AddExternalHost("cc", ccAddr)
	malware.NewCCServer(cc, malware.CCConfig{Template: "x",
		Targets: []netstack.Addr{netstack.MustParseAddr("203.0.113.25")}})

	mk := func(name string, lo, hi, svc uint16, pool, infra string) *Subfarm {
		sf, err := f.AddSubfarm(SubfarmConfig{
			Name: name, VLANLo: lo, VLANHi: hi, ServiceVLAN: svc,
			GlobalPool:   netstack.MustParsePrefix(pool),
			InfraPool:    netstack.MustParsePrefix(infra),
			PolicyConfig: "[VLAN " + itoa(lo) + "-" + itoa(hi) + "]\nDecider = Rustock\nInfection = *.exe\n",
			SampleLibrary: []*policy.Sample{
				policy.NewSample("bot.exe", "rustock", []byte("MZ")),
			},
			RepeatBatches:  true,
			CCHosts:        map[string]policy.AddrPort{"Rustock": {Addr: ccAddr, Port: 443}},
			SinkStrictness: smtpx.Lenient,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}
	sfA := mk("alpha", 16, 20, 11, "192.0.2.0/24", "192.0.9.0/24")
	sfB := mk("beta", 40, 44, 12, "198.51.100.0/24", "192.0.10.0/24")
	sfC := mk("gamma", 60, 64, 13, "203.0.114.0/24", "192.0.11.0/24")

	a, _ := sfA.AddInmate("a0")
	b, _ := sfB.AddInmate("b0")
	c, _ := sfC.AddInmate("c0")
	var flowEvents []obs.Event
	f.Sim.Obs().Journal.SetSink(sinkFunc(func(e obs.Event) {
		if e.Flow != 0 {
			flowEvents = append(flowEvents, e)
		}
	}))
	f.Run(20 * time.Minute)

	for i, bot := range []*FarmInmate{a, b, c} {
		if bot.Family != "rustock" {
			t.Fatalf("inmate %d never infected", i)
		}
	}
	// Flows stay within each subfarm.
	for _, sf := range []*Subfarm{sfA, sfB, sfC} {
		n := 0
		for _, e := range flowEvents {
			if e.Scope != sf.Name {
				continue
			}
			n++
			if e.VLAN < sf.Config.VLANLo || e.VLAN > sf.Config.VLANHi {
				t.Fatalf("flow event on VLAN %d outside %s: %+v", e.VLAN, sf.Name, e)
			}
		}
		if n == 0 {
			t.Fatalf("subfarm %s has no activity", sf.Name)
		}
	}
	// NAT pools don't bleed.
	if sfA.Router.NAT().ByVLAN(a.VLAN).Global == sfB.Router.NAT().ByVLAN(b.VLAN).Global {
		t.Fatal("global pools overlap")
	}
}

func itoa(v uint16) string { return strconv.Itoa(int(v)) }

// sinkFunc is a journal sink that hands each event to a function.
type sinkFunc func(obs.Event)

func (fn sinkFunc) WriteEvent(e obs.Event) error {
	fn(e)
	return nil
}
