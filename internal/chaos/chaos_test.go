package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/rawiron"
	"gq/internal/supervisor"
)

// TestParsePresets: every preset parses to itself, with the defaults its
// schedules imply filled in.
func TestParsePresets(t *testing.T) {
	for name, base := range presets {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := base
		want.applyDefaults()
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s parsed to\n%+v\nwant\n%+v", name, p, want)
		}
		if len(p.CSCrashAt) > 0 && p.CSDownFor <= 0 ||
			len(p.SinkCrashAt) > 0 && (p.SinkCrashTarget == "" || p.SinkCrashFor <= 0) ||
			len(p.CtlHangAt) > 0 && p.CtlHangFor <= 0 ||
			len(p.RecyclerWedgeAt) > 0 && p.RecyclerWedgeFor <= 0 {
			t.Errorf("%s: a schedule without its duration: %v", name, p)
		}
		if why := outOfBounds(p); why != "" {
			t.Errorf("%s: %s", name, why)
		}
		if !strings.HasPrefix(p.String(), name+",") {
			t.Errorf("%s renders as %q", name, p)
		}
		// Parsing must not hand out the preset's own schedule slices.
		if len(p.CSCrashAt) > 0 {
			p.CSCrashAt[0] = -1
			if presets[name].CSCrashAt[0] == -1 {
				t.Errorf("%s: Parse aliases the preset's CSCrashAt", name)
			}
		}
	}
}

// TestParseOverrides: key=value overrides apply on top of a preset or of the
// zero profile; a repeatable schedule key replaces the preset's schedule on
// first use and extends it after.
func TestParseOverrides(t *testing.T) {
	p, err := Parse(" soak , loss=0.10, cscrash=4m,cscrash=12m ,SINK=bannersink,")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "soak" || p.Loss != 0.10 || p.Reorder != presets["soak"].Reorder || p.Sink != "bannersink" {
		t.Errorf("overrides on soak: %v", p)
	}
	if want := []time.Duration{4 * time.Minute, 12 * time.Minute}; !reflect.DeepEqual(p.CSCrashAt, want) {
		t.Errorf("cscrash schedule %v, want %v (replacing the preset's)", p.CSCrashAt, want)
	}

	p, err = Parse("jitter=3ms,reorder=0.5,dup=0.25,corrupt=0.125,flapevery=1m,stallat=2m,stallfor=30s," +
		"sinkdownat=3m,sinkdownfor=1m,sinkcrash=4m,sinkcrash=5m,ctlhang=6m,recyclerwedge=7m," +
		"nbhang=0.1,xferstall=0.2,xfercorrupt=0.3,powerstick=0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{
		Name:   "custom",
		Jitter: 3 * time.Millisecond, Reorder: 0.5, Dup: 0.25, Corrupt: 0.125,
		FlapEvery: time.Minute, FlapDown: 10 * time.Second,
		StallAt: 2 * time.Minute, StallFor: 30 * time.Second, StallDelay: 5 * time.Second,
		Sink: "smtpsink", SinkDownAt: 3 * time.Minute, SinkDownFor: time.Minute,
		SinkCrashAt: []time.Duration{4 * time.Minute, 5 * time.Minute}, SinkCrashTarget: "smtpsink", SinkCrashFor: time.Minute,
		CtlHangAt: []time.Duration{6 * time.Minute}, CtlHangFor: time.Minute,
		RecyclerWedgeAt: []time.Duration{7 * time.Minute}, RecyclerWedgeFor: time.Minute,
		ReimageNetbootHang: 0.1, ReimageXferStall: 0.2, ReimageXferCorrupt: 0.3, ReimagePowerStick: 0.4,
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("custom profile parsed to\n%+v\nwant\n%+v", p, want)
	}
	if !p.ReimageFaultsActive() {
		t.Error("reimage fault rates set but not reported active")
	}

	if p, err = Parse(""); err != nil || !reflect.DeepEqual(p, Profile{Name: "custom"}) {
		t.Errorf("empty spec: %+v, %v — want the zero profile", p, err)
	}
}

func TestParseMalformed(t *testing.T) {
	for spec, wantErr := range map[string]string{
		"nosuchpreset":     `unknown preset "nosuchpreset"`,
		"loss=0.1,soak":    `unknown preset "soak"`, // a preset is only a base, never an override
		"soak,light":       `unknown preset "light"`,
		"soak,volume=11":   `unknown key "volume"`,
		"loss=lots":        `bad value for "loss"`,
		"cscrash=soon":     `bad value for "cscrash"`,
		"soak,jitter=3":    `bad value for "jitter"`, // a duration needs a unit
		"ctlhangfor=":      `bad value for "ctlhangfor"`,
		"recyclerwedge=1x": `bad value for "recyclerwedge"`,
		// Values the injector cannot run.
		"loss=1.5":                  `bad value for "loss"`,
		"soak,reorder=-0.1":         `bad value for "reorder"`,
		"dup=NaN":                   `bad value for "dup"`,
		"corrupt=+Inf":              `bad value for "corrupt"`,
		"reimage,nbhang=2":          `bad value for "nbhang"`,
		"xferstall=-1":              `bad value for "xferstall"`,
		"xfercorrupt=nan":           `bad value for "xfercorrupt"`,
		"powerstick=1.0001":         `bad value for "powerstick"`,
		"jitter=-1ms":               `bad value for "jitter"`,
		"light,flapevery=1ns":       `bad value for "flapevery"`,
		"flapevery=999ms":           `bad value for "flapevery"`,
		"flapevery=-5m":             `bad value for "flapevery"`,
		"flapevery=1m,flapdown=-1s": `bad value for "flapdown"`,
		"cscrash=-4m":               `bad value for "cscrash"`,
		"crash,csdownfor=-30s":      `bad value for "csdownfor"`,
		"stallat=-1s":               `bad value for "stallat"`,
		"stallfor=-1s":              `bad value for "stallfor"`,
		"stalldelay=-1s":            `bad value for "stalldelay"`,
		"sinkdownat=-1m":            `bad value for "sinkdownat"`,
		"sinkdownfor=-1m":           `bad value for "sinkdownfor"`,
		"sinkcrash=-2m":             `bad value for "sinkcrash"`,
		"sinkcrashfor=-1m":          `bad value for "sinkcrashfor"`,
		"ctlhang=-1m":               `bad value for "ctlhang"`,
		"ctlhangfor=-1m":            `bad value for "ctlhangfor"`,
		"recyclerwedge=-6m":         `bad value for "recyclerwedge"`,
		"recyclerwedgefor=-1m":      `bad value for "recyclerwedgefor"`,
	} {
		p, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", spec, err, wantErr)
		}
		if !reflect.DeepEqual(p, Profile{}) {
			t.Errorf("Parse(%q) returned a half-built profile next to its error: %+v", spec, p)
		}
	}
}

// TestParseAcceptsBounds: the edges of each range are values the injector
// runs, and zero flapevery still switches a preset's flapping off.
func TestParseAcceptsBounds(t *testing.T) {
	p, err := Parse("loss=0,reorder=1,dup=0,corrupt=1,nbhang=1,xferstall=0,xfercorrupt=1,powerstick=0," +
		"jitter=0s,flapevery=1s,cscrash=0s,stallat=0s,sinkcrash=0s,ctlhang=0s,recyclerwedge=0s")
	if err != nil {
		t.Fatal(err)
	}
	if p.FlapEvery != MinFlapEvery || p.Reorder != 1 || p.ReimageNetbootHang != 1 {
		t.Errorf("edge values parsed to %v", p)
	}
	if p, err = Parse("soak,flapevery=0"); err != nil || p.FlapEvery != 0 {
		t.Errorf("soak,flapevery=0: %v, %v — want flapping off", p.FlapEvery, err)
	}
}

// outOfBounds names the first range an accepted profile breaks: a
// probability outside [0,1], a negative duration or offset, or a flap
// period under MinFlapEvery. It returns "" for a profile the injector runs.
func outOfBounds(p Profile) string {
	for name, f := range map[string]float64{
		"loss": p.Loss, "reorder": p.Reorder, "dup": p.Dup, "corrupt": p.Corrupt,
		"nbhang": p.ReimageNetbootHang, "xferstall": p.ReimageXferStall,
		"xfercorrupt": p.ReimageXferCorrupt, "powerstick": p.ReimagePowerStick,
	} {
		if !(f >= 0 && f <= 1) {
			return fmt.Sprintf("%s = %v, not in [0,1]", name, f)
		}
	}
	durs := []time.Duration{p.Jitter, p.FlapEvery, p.FlapDown, p.CSDownFor, p.StallAt, p.StallFor,
		p.StallDelay, p.SinkDownAt, p.SinkDownFor, p.SinkCrashFor, p.CtlHangFor, p.RecyclerWedgeFor}
	for _, s := range [][]time.Duration{p.CSCrashAt, p.SinkCrashAt, p.CtlHangAt, p.RecyclerWedgeAt} {
		durs = append(durs, s...)
	}
	for _, d := range durs {
		if d < 0 {
			return fmt.Sprintf("negative duration %v", d)
		}
	}
	if p.FlapEvery > 0 && p.FlapEvery < MinFlapEvery {
		return fmt.Sprintf("flapevery %v under %v", p.FlapEvery, MinFlapEvery)
	}
	return ""
}

// FuzzChaosParse: whatever spec an operator sends (gqfarm -chaos, POST
// /chaos), Parse either refuses it with a zero profile or returns one the
// injector can run.
func FuzzChaosParse(f *testing.F) {
	for name := range presets {
		f.Add(name)
	}
	for _, spec := range []string{
		"soak,loss=0.10,cscrash=4m,cscrash=12m",
		"light,flapevery=1ns",
		"loss=1.5,jitter=-1ms",
		"dup=NaN,flapevery=1s,flapdown=-1s",
		"reimage,nbhang=1,xferstall=0,powerstick=1e-3",
		"stallat=2m,stallfor=30s,sinkcrash=4m,ctlhang=6m,recyclerwedge=7m",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			if !reflect.DeepEqual(p, Profile{}) {
				t.Fatalf("Parse(%q) returned %+v next to its error", spec, p)
			}
			return
		}
		if why := outOfBounds(p); why != "" {
			t.Fatalf("Parse(%q) accepted a profile the injector cannot run: %s", spec, why)
		}
		if back, err := Parse(p.String()); err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("Parse(%q) = %+v; its String %q parses to %+v, %v", spec, p, p.String(), back, err)
		}
	})
}

// String is the spec Parse reads: rates below a thousandth keep their
// digits, and every profile reads back to itself.
func TestStringIsTheSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		has  []string
	}{
		{"loss=0.0004,corrupt=0.00005", []string{"loss=0.0004,", "corrupt=5e-05,"}},
		{"soak,dup=0.0001,jitter=1.5ms", []string{"soak,", "dup=0.0001,", "jitter=1.5ms,", "cscrash=8m0s,"}},
		{"reimage,nbhang=0.0009", []string{"reimage,", "nbhang=0.0009,", "powerstick=0.08"}},
		{"cscrash=1m,cscrash=2m", []string{"cscrash=1m0s,cscrash=2m0s,csdownfor=30s"}},
	} {
		p, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		s := p.String()
		for _, want := range tc.has {
			if !strings.Contains(s, want) {
				t.Errorf("Parse(%q).String() = %q, want it to hold %q", tc.spec, s, want)
			}
		}
		if back, err := Parse(s); err != nil || !reflect.DeepEqual(back, p) {
			t.Errorf("%q parses to %+v, %v; want %+v", s, back, err, p)
		}
	}
}

// chaosFarm is the smallest farm with something of every kind the injector
// breaks: two inmate links, a two-member containment cluster, the sinks.
func chaosFarm(t *testing.T) (*farm.Farm, *farm.Subfarm, *eventLog) {
	t.Helper()
	f := farm.New(1)
	log := &eventLog{}
	f.Sim.Obs().Journal.SetSink(log)
	sf, err := f.AddSubfarm(farm.SubfarmConfig{
		Name: "pen", VLANLo: 16, VLANHi: 20,
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
		FallbackPolicy:     "DefaultDeny",
		ContainmentServers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sf.AddInmate(fmt.Sprintf("inmate-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return f, sf, log
}

// eventLog counts the chaos events a run journals, by type and detail.
type eventLog struct{ n map[string]int }

func (l *eventLog) WriteEvent(e obs.Event) error {
	if strings.HasPrefix(e.Type, obs.EvChaosPrefix) {
		if l.n == nil {
			l.n = map[string]int{}
		}
		l.n[strings.TrimSpace(e.Type+" "+e.Detail)]++
	}
	return nil
}

// TestApplyStopRestoresEverything breaks one of everything — both inmate
// links flapped down, both containment servers crashed, verdicts stalled,
// the sink's NIC pulled — and stops injection, once while every fault is
// still in flight (Stop must run the restores) and once after each has run
// out on its own (Stop must find nothing left to do). Either way the farm is
// whole again and every fault's end is journalled exactly once.
func TestApplyStopRestoresEverything(t *testing.T) {
	const stopAt = 7 * time.Minute // after the last fault of the schedule began
	for _, tc := range []struct{ name, faultsLast string }{
		{"stopped mid-fault", "1h"},
		{"faults ran out", "20s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(strings.ReplaceAll("loss=0.05,jitter=1ms,flapevery=1m,flapdown=D,cscrash=2m,cscrash=3m,csdownfor=D,"+
				"stallat=4m,stallfor=D,stalldelay=10m,sinkdownat=5m,sinkdownfor=D", "D", tc.faultsLast))
			if err != nil {
				t.Fatal(err)
			}
			f, sf, log := chaosFarm(t)
			inj := Apply(sf, p)
			if len(inj.links) != 2 {
				t.Fatalf("%d inmate links impaired, want 2", len(inj.links))
			}
			for _, l := range inj.links {
				if l.nic.Loss == 0 || l.sw.Loss == 0 {
					t.Fatalf("VLAN %d: link not impaired in both directions", l.vlan)
				}
			}
			f.Run(stopAt)
			midFault := tc.faultsLast == "1h"
			if midFault {
				sink := sf.SvcHosts["smtpsink"].NIC()
				if sf.CSCluster[0].Host.Alive() || sf.CSCluster[1].Host.Alive() || sink.Up() {
					t.Fatal("setup: the cluster and the sink should be down when injection stops")
				}
				if inj.links[0].nic.Up() || inj.links[1].nic.Up() {
					t.Fatal("setup: both inmate links should be flapped down when injection stops")
				}
			}
			inj.Stop()
			inj.Stop() // idempotent

			if inj.Crashes != len(p.CSCrashAt) {
				t.Errorf("Crashes = %d, want %d (one per CSCrashAt entry)", inj.Crashes, len(p.CSCrashAt))
			}
			for _, l := range inj.links {
				if !l.nic.Up() || !l.sw.Up() || l.nic.Loss != 0 || l.sw.Loss != 0 {
					t.Errorf("VLAN %d: link left down or impaired", l.vlan)
				}
			}
			for i, srv := range sf.CSCluster {
				if !srv.Host.Alive() {
					t.Errorf("containment server %d left crashed", i)
				}
			}
			if nic := sf.SvcHosts["smtpsink"].NIC(); !nic.Up() || !nic.Peer().Up() {
				t.Error("sink link left down")
			}
			if len(inj.restores) != 0 {
				t.Errorf("%d restores still outstanding", len(inj.restores))
			}
			flaps := log.n[EvLinkDown]
			f.Run(time.Minute)
			if log.n[EvLinkDown] != flaps || log.n[EvCSCrash] != 2 {
				t.Errorf("faults kept firing after Stop: %v", log.n)
			}
			if flaps == 0 || (midFault && flaps != 2) {
				t.Errorf("%d link flaps, want some (exactly 2 when neither comes back)", flaps)
			}
			for begin, end := range map[string]string{
				EvLinkDown:                EvLinkUp,
				EvCSCrash:                 EvCSRestart,
				EvVerdictStall + " begin": EvVerdictStall + " end",
				EvSinkDown + " outage":    EvSinkUp,
			} {
				if log.n[begin] == 0 || log.n[begin] != log.n[end] {
					t.Errorf("%d × %q but %d × %q", log.n[begin], begin, log.n[end], end)
				}
			}
			// Verdicts flow at full speed again: a server still sitting on
			// each verdict for StallDelay would hold every probe flow past
			// the window.
			probe, err := farm.RunContainmentProbe(f, sf, nil, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if len(probe.Escaped()) > 0 || probe.SinkFlows != len(probe.Sent) {
				t.Errorf("restored containment plane is not answering: %s", probe)
			}
		})
	}
}

// TestSupervisedFaultsRecoverThroughTree: on a tree-supervised subfarm the
// injector only breaks things. A containment-server crash, a sink crash, a
// controller hang and a recycler wedge each journal their start and no
// chaos-owned end, and the tree brings every one of them back long before
// chaos's own (hour-long) restores would have fired.
func TestSupervisedFaultsRecoverThroughTree(t *testing.T) {
	f, sf, log := chaosFarm(t)
	r, err := sf.StartIronRotation(1, rawiron.Config{ImageSizeMB: 256, TrunkMBps: 16},
		farm.RecyclerConfig{DetonateFor: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tree := f.SuperviseTree(supervisor.Config{WedgeBudget: 3 * time.Minute})
	// The box's second detonation window is 6m40s–8m10s (each reimage
	// takes 1m50s), so the wedge at 7m cancels a live harvest timer.
	p, err := Parse("cscrash=2m,csdownfor=1h,sinkcrash=3m,sinkcrashfor=1h,ctlhang=4m,ctlhangfor=1h,recyclerwedge=7m,recyclerwedgefor=1h")
	if err != nil {
		t.Fatal(err)
	}
	inj := Apply(sf, p)
	f.Run(20 * time.Minute)

	for _, begin := range []string{EvCSCrash, EvSinkCrash + " smtpsink", EvCtlHang + " begin", EvRecWedge} {
		if log.n[begin] != 1 {
			t.Errorf("%d × %q, want the one scheduled fault", log.n[begin], begin)
		}
	}
	for ev := range log.n {
		for _, end := range []string{EvCSRestart, EvSinkRestore, EvCtlRestore, EvRecRearm} {
			if strings.HasPrefix(ev, end) {
				t.Errorf("chaos journalled %q: it recovered a fault the tree owns", ev)
			}
		}
	}
	if len(inj.restores) != 0 {
		t.Errorf("%d chaos restores scheduled on a supervised subfarm", len(inj.restores))
	}

	sup := sf.Supervisor
	if !sf.CSCluster[0].Host.Alive() || !sup.Healthy(0) {
		t.Error("crashed containment server not brought back by the tree")
	}
	snap := f.Sim.Obs().Snapshot()
	if g := snap.Gauge(supervisor.HealthGaugeName(supervisor.KindSink, sf.Name, "smtpsink")); g != 1 || !sf.SvcHosts["smtpsink"].Alive() {
		t.Errorf("crashed sink not brought back by the tree (health gauge %d)", g)
	}
	// The subfarm's PING probe reads healthy only on a live PONG.
	if g := snap.Gauge(supervisor.HealthGaugeName(supervisor.KindController, sf.Name, "controller")); g != 1 || !tree.ControllerHealthy() {
		t.Errorf("hung controller not repaired by the tree (probe gauge %d): %v", g, tree.ControllerHistory())
	}
	if n := snap.Counter("supervisor.root.rearms"); n != 1 {
		t.Errorf("supervisor.root.rearms = %d, want the one wedge re-armed", n)
	}
	mark := r.Progress()
	f.Run(10 * time.Minute)
	if r.Progress() <= mark {
		t.Errorf("recycler progress stuck at %d after the tree re-armed it", mark)
	}
}

// TestSinkCrashRestoresEveryBinding: on an unsupervised subfarm, chaos's
// own restore power-cycles a crashed sink's host, and every port the sink
// bound at boot answers again — the catch-all on any TCP and UDP port, an
// SMTP sink's greeting on 25 and its control socket on 26, the HTTP sink's
// 200 on 80.
func TestSinkCrashRestoresEveryBinding(t *testing.T) {
	for _, id := range []string{"catchall", "smtpsink", "bannersink", "httpsink"} {
		t.Run(id, func(t *testing.T) {
			f, sf, log := chaosFarm(t)
			p, err := Parse("sinkcrash=1m,sinkcrashtarget=" + id + ",sinkcrashfor=1m")
			if err != nil {
				t.Fatal(err)
			}
			Apply(sf, p)
			f.Run(3 * time.Minute)
			if log.n[EvSinkCrash+" "+id] != 1 || log.n[EvSinkRestore+" "+id] != 1 {
				t.Fatalf("journal %v, want one crash and one restore of %s", log.n, id)
			}
			h, from := sf.SvcHosts[id], sf.CSHost
			if !h.Alive() {
				t.Fatal("sink host still down after its restore")
			}
			// ask dials port on the sink and sends req; the sink's replies
			// collect in the returned builder as the farm runs.
			ask := func(port uint16, req string) *strings.Builder {
				var got strings.Builder
				c := from.Dial(h.Addr(), port)
				c.OnConnect = func() { c.Write([]byte(req)) }
				c.OnData = func(d []byte) { got.Write(d) }
				return &got
			}
			switch id {
			case "catchall":
				tcp, udp := sf.CatchAll.TCPConns, sf.CatchAll.UDPDatagrams
				ask(4444, "probe")
				sock, err := from.ListenUDP(0, nil)
				if err != nil {
					t.Fatal(err)
				}
				sock.SendTo(h.Addr(), 5353, []byte("probe"))
				f.Run(time.Minute)
				if sf.CatchAll.TCPConns != tcp+1 || sf.CatchAll.UDPDatagrams != udp+1 {
					t.Errorf("catch-all counted %d TCP connections and %d datagrams after its restore, want 1 and 1",
						sf.CatchAll.TCPConns-tcp, sf.CatchAll.UDPDatagrams-udp)
				}
			case "smtpsink", "bannersink":
				greeting := ask(25, "")
				f.Run(time.Minute)
				if !strings.HasPrefix(greeting.String(), "220 ") {
					t.Errorf("port 25 greeted with %q after the restore", greeting)
				}
				if _, err := h.ListenUDP(26, nil); err == nil {
					t.Error("control port 26 unbound after the restore")
				}
			case "httpsink":
				reply := ask(80, "GET /click HTTP/1.1\r\nHost: ads.example\r\n\r\n")
				f.Run(time.Minute)
				if !strings.HasPrefix(reply.String(), "HTTP/1.1 200 ") {
					t.Errorf("port 80 answered %q after the restore", reply)
				}
			}
		})
	}
}
