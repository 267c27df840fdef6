// Package chaos is the farm's fault-injection harness. A Profile describes
// which faults to inject — link impairment on inmate access links, link
// flaps, containment-server crash/restart cycles, stalled verdicts, sink
// outages — and an Injector applies it to a running subfarm. Everything is
// driven by the shared simulator: all randomness comes from the simulator
// RNG and all scheduling runs on the virtual clock, so a given (seed,
// profile) pair replays the exact same fault sequence every run.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Profile is a declarative fault-injection plan. The zero value injects
// nothing.
type Profile struct {
	Name string

	// Link impairment, applied to both directions of every inmate access
	// link present when the profile is applied (see netsim.Impairment).
	Loss    float64
	Jitter  time.Duration
	Reorder float64
	Dup     float64
	Corrupt float64

	// Link flapping: every FlapEvery, one inmate link (chosen by the sim
	// RNG) goes administratively down for FlapDown. Zero FlapEvery
	// disables flapping.
	FlapEvery time.Duration
	FlapDown  time.Duration

	// Containment-server crash schedule: at each listed offset a cluster
	// member is shut down mid-session and restarted CSDownFor later with
	// its listeners rebound. Members are chosen round-robin.
	CSCrashAt []time.Duration
	CSDownFor time.Duration

	// Stalled verdicts: from StallAt for StallFor, every containment
	// server sits on each verdict for StallDelay before answering.
	StallAt    time.Duration
	StallFor   time.Duration
	StallDelay time.Duration

	// Sink outage: the named service host (default "smtpsink") loses its
	// NIC from SinkDownAt for SinkDownFor. Zero SinkDownFor disables it.
	Sink        string
	SinkDownAt  time.Duration
	SinkDownFor time.Duration

	// Sink crash schedule: at each listed offset the named sink service
	// host (SinkCrashTarget, default "smtpsink") is shut down mid-session
	// — listeners and live connections destroyed, not just the NIC pulled.
	// On an unsupervised subfarm chaos restores it SinkCrashFor later; on
	// a supervised one recovery belongs to the supervision tree.
	SinkCrashAt     []time.Duration
	SinkCrashTarget string
	SinkCrashFor    time.Duration

	// Controller hang: at each listed offset the farm-wide inmate
	// controller stops consuming its control connections (TCP handshakes
	// still complete; the application goes silent) for CtlHangFor. A
	// supervised farm recovers through the tree's restart ladder;
	// otherwise chaos unhangs it.
	CtlHangAt  []time.Duration
	CtlHangFor time.Duration

	// Recycler wedge: at each listed offset every armed timer in the
	// subfarm's detonation/recycling pipeline is cancelled. A supervision
	// tree's progress watch re-arms the pipeline; otherwise chaos re-arms
	// it RecyclerWedgeFor later.
	RecyclerWedgeAt  []time.Duration
	RecyclerWedgeFor time.Duration

	// Raw-iron reimage faults, installed on the subfarm's raw-iron
	// controller when one is attached (see internal/rawiron.Faults):
	// per-opportunity probabilities of a hung netboot, a stalled or
	// corrupted image transfer, and a stuck power port. All zero means no
	// fault hooks — the controller then draws no randomness at all.
	ReimageNetbootHang float64
	ReimageXferStall   float64
	ReimageXferCorrupt float64
	ReimagePowerStick  float64
}

// ReimageFaultsActive reports whether any raw-iron fault hook is set.
func (p Profile) ReimageFaultsActive() bool {
	return p.ReimageNetbootHang > 0 || p.ReimageXferStall > 0 ||
		p.ReimageXferCorrupt > 0 || p.ReimagePowerStick > 0
}

// presets are the named baseline profiles -chaos accepts. "soak" is the
// acceptance profile: ≥5% loss, reordering, one scheduled CS crash, a
// verdict-stall window, and a sink outage.
var presets = map[string]Profile{
	"soak": {
		Name: "soak",
		Loss: 0.05, Reorder: 0.05, Dup: 0.02, Corrupt: 0.001,
		Jitter:    2 * time.Millisecond,
		FlapEvery: 5 * time.Minute, FlapDown: 10 * time.Second,
		CSCrashAt: []time.Duration{8 * time.Minute}, CSDownFor: 30 * time.Second,
		StallAt: 13 * time.Minute, StallFor: 20 * time.Second, StallDelay: 5 * time.Second,
		SinkDownAt: 16 * time.Minute, SinkDownFor: time.Minute,
	},
	"light": {
		Name: "light",
		Loss: 0.02, Jitter: time.Millisecond,
	},
	"crash": {
		Name:      "crash",
		CSCrashAt: []time.Duration{5 * time.Minute}, CSDownFor: 30 * time.Second,
	},
	// killstorm is the recovery soak's profile: moderate impairment plus a
	// sustained round-robin kill schedule across the containment cluster.
	// Without supervision this blackholes the dead members' inmates for
	// CSDownFor each time; with supervision, recovery must beat it.
	"killstorm": {
		Name: "killstorm",
		Loss: 0.02, Reorder: 0.02, Jitter: time.Millisecond,
		CSCrashAt: []time.Duration{
			4 * time.Minute, 6 * time.Minute, 8 * time.Minute,
			10 * time.Minute, 12 * time.Minute, 14 * time.Minute,
		},
		CSDownFor: time.Minute,
	},
	// blackout is the fleet soak's profile: a killstorm-grade CS crash
	// schedule plus sink crashes, a controller hang, and a recycler wedge
	// — every fault class the supervision tree is expected to survive (or
	// escalate) at once.
	"blackout": {
		Name: "blackout",
		Loss: 0.02, Reorder: 0.02, Jitter: time.Millisecond,
		CSCrashAt: []time.Duration{
			4 * time.Minute, 6 * time.Minute, 8 * time.Minute, 10 * time.Minute,
		},
		CSDownFor:   time.Minute,
		SinkCrashAt: []time.Duration{5 * time.Minute, 9 * time.Minute},
		CtlHangAt:   []time.Duration{7 * time.Minute}, CtlHangFor: 90 * time.Second,
		RecyclerWedgeAt: []time.Duration{6 * time.Minute},
	},
	// reimage is the recycling soak's profile: light link impairment plus
	// raw-iron hardware faults at rates high enough that most soak runs
	// see retries on every fault path and the occasional breaker trip.
	"reimage": {
		Name: "reimage",
		Loss: 0.01, Jitter: time.Millisecond,
		ReimageNetbootHang: 0.12, ReimageXferStall: 0.10,
		ReimageXferCorrupt: 0.06, ReimagePowerStick: 0.08,
	},
}

// Parse builds a Profile from a -chaos spec: either a preset name ("soak",
// "light", "crash", "killstorm", "blackout", "reimage"), or a preset
// followed by comma-separated key=value overrides, or overrides alone on
// top of the zero profile. Keys: loss, jitter, reorder, dup, corrupt,
// flapevery, flapdown, cscrash (repeatable), csdownfor, stallat, stallfor,
// stalldelay, sink, sinkdownat, sinkdownfor, sinkcrash (repeatable),
// sinkcrashtarget, sinkcrashfor, ctlhang (repeatable), ctlhangfor,
// recyclerwedge (repeatable), recyclerwedgefor, nbhang, xferstall,
// xfercorrupt, powerstick. It refuses a spec the injector cannot run: a
// probability (loss, reorder, dup, corrupt and the four reimage rates)
// outside [0,1], a negative duration or offset, and a non-zero flapevery
// below MinFlapEvery.
//
//	soak
//	soak,loss=0.10,cscrash=4m,cscrash=12m
//	loss=0.05,reorder=0.05,cscrash=8m
func Parse(spec string) (Profile, error) {
	var p Profile
	sawCrash, sawSinkCrash, sawCtlHang, sawWedge := false, false, false, false
	for i, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if !strings.Contains(tok, "=") {
			base, ok := presets[tok]
			if !ok || i != 0 {
				return Profile{}, fmt.Errorf("chaos: unknown preset %q", tok)
			}
			p = base
			// A preset's schedules are replaced, not extended, by explicit
			// cscrash=/sinkcrash=/ctlhang=/recyclerwedge= overrides.
			p.CSCrashAt = append([]time.Duration(nil), base.CSCrashAt...)
			p.SinkCrashAt = append([]time.Duration(nil), base.SinkCrashAt...)
			p.CtlHangAt = append([]time.Duration(nil), base.CtlHangAt...)
			p.RecyclerWedgeAt = append([]time.Duration(nil), base.RecyclerWedgeAt...)
			continue
		}
		k, v, _ := strings.Cut(tok, "=")
		var err error
		switch strings.ToLower(k) {
		case "loss":
			p.Loss, err = parseProb(v)
		case "reorder":
			p.Reorder, err = parseProb(v)
		case "dup":
			p.Dup, err = parseProb(v)
		case "corrupt":
			p.Corrupt, err = parseProb(v)
		case "jitter":
			p.Jitter, err = parseDur(v)
		case "flapevery":
			p.FlapEvery, err = parseDur(v)
			if err == nil && p.FlapEvery > 0 && p.FlapEvery < MinFlapEvery {
				err = fmt.Errorf("%v is below the %v floor", p.FlapEvery, MinFlapEvery)
			}
		case "flapdown":
			p.FlapDown, err = parseDur(v)
		case "cscrash":
			var d time.Duration
			d, err = parseDur(v)
			if !sawCrash {
				p.CSCrashAt = nil
				sawCrash = true
			}
			p.CSCrashAt = append(p.CSCrashAt, d)
		case "csdownfor":
			p.CSDownFor, err = parseDur(v)
		case "stallat":
			p.StallAt, err = parseDur(v)
		case "stallfor":
			p.StallFor, err = parseDur(v)
		case "stalldelay":
			p.StallDelay, err = parseDur(v)
		case "sink":
			p.Sink = v
		case "sinkdownat":
			p.SinkDownAt, err = parseDur(v)
		case "sinkdownfor":
			p.SinkDownFor, err = parseDur(v)
		case "sinkcrash":
			var d time.Duration
			d, err = parseDur(v)
			if !sawSinkCrash {
				p.SinkCrashAt = nil
				sawSinkCrash = true
			}
			p.SinkCrashAt = append(p.SinkCrashAt, d)
		case "sinkcrashtarget":
			p.SinkCrashTarget = v
		case "sinkcrashfor":
			p.SinkCrashFor, err = parseDur(v)
		case "ctlhang":
			var d time.Duration
			d, err = parseDur(v)
			if !sawCtlHang {
				p.CtlHangAt = nil
				sawCtlHang = true
			}
			p.CtlHangAt = append(p.CtlHangAt, d)
		case "ctlhangfor":
			p.CtlHangFor, err = parseDur(v)
		case "recyclerwedge":
			var d time.Duration
			d, err = parseDur(v)
			if !sawWedge {
				p.RecyclerWedgeAt = nil
				sawWedge = true
			}
			p.RecyclerWedgeAt = append(p.RecyclerWedgeAt, d)
		case "recyclerwedgefor":
			p.RecyclerWedgeFor, err = parseDur(v)
		case "nbhang":
			p.ReimageNetbootHang, err = parseProb(v)
		case "xferstall":
			p.ReimageXferStall, err = parseProb(v)
		case "xfercorrupt":
			p.ReimageXferCorrupt, err = parseProb(v)
		case "powerstick":
			p.ReimagePowerStick, err = parseProb(v)
		default:
			return Profile{}, fmt.Errorf("chaos: unknown key %q", k)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("chaos: bad value for %q: %v", k, err)
		}
	}
	if p.Name == "" {
		p.Name = "custom"
	}
	p.applyDefaults()
	return p, nil
}

// MinFlapEvery is the shortest flap period Parse accepts. The injector arms
// one timer per period, so a period of nanoseconds puts billions of events
// into a run of minutes, which then does not finish; the presets flap
// every 5m.
const MinFlapEvery = time.Second

// parseProb reads a probability: a number in [0,1] (NaN is refused).
func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && !(f >= 0 && f <= 1) {
		err = fmt.Errorf("%v is not a probability in [0,1]", f)
	}
	return f, err
}

// parseDur reads a duration or schedule offset, which may not be negative.
func parseDur(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err == nil && d < 0 {
		err = fmt.Errorf("%v is negative", d)
	}
	return d, err
}

func (p *Profile) applyDefaults() {
	if len(p.CSCrashAt) > 0 && p.CSDownFor <= 0 {
		p.CSDownFor = 30 * time.Second
	}
	if p.FlapEvery > 0 && p.FlapDown <= 0 {
		p.FlapDown = 10 * time.Second
	}
	if p.StallFor > 0 && p.StallDelay <= 0 {
		p.StallDelay = 5 * time.Second
	}
	if p.SinkDownFor > 0 && p.Sink == "" {
		p.Sink = "smtpsink"
	}
	if len(p.SinkCrashAt) > 0 {
		if p.SinkCrashTarget == "" {
			p.SinkCrashTarget = "smtpsink"
		}
		if p.SinkCrashFor <= 0 {
			p.SinkCrashFor = time.Minute
		}
	}
	if len(p.CtlHangAt) > 0 && p.CtlHangFor <= 0 {
		p.CtlHangFor = time.Minute
	}
	if len(p.RecyclerWedgeAt) > 0 && p.RecyclerWedgeFor <= 0 {
		p.RecyclerWedgeFor = time.Minute
	}
}

// String renders the profile compactly for run summaries.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: loss=%.3f reorder=%.3f dup=%.3f corrupt=%.4f jitter=%v",
		p.Name, p.Loss, p.Reorder, p.Dup, p.Corrupt, p.Jitter)
	if p.FlapEvery > 0 {
		fmt.Fprintf(&b, " flap=%v/%v", p.FlapEvery, p.FlapDown)
	}
	if len(p.CSCrashAt) > 0 {
		fmt.Fprintf(&b, " cscrash=%v down=%v", p.CSCrashAt, p.CSDownFor)
	}
	if p.StallFor > 0 {
		fmt.Fprintf(&b, " stall=%v+%v delay=%v", p.StallAt, p.StallFor, p.StallDelay)
	}
	if p.SinkDownFor > 0 {
		fmt.Fprintf(&b, " sink=%s down=%v+%v", p.Sink, p.SinkDownAt, p.SinkDownFor)
	}
	if len(p.SinkCrashAt) > 0 {
		fmt.Fprintf(&b, " sinkcrash=%s@%v for=%v", p.SinkCrashTarget, p.SinkCrashAt, p.SinkCrashFor)
	}
	if len(p.CtlHangAt) > 0 {
		fmt.Fprintf(&b, " ctlhang=%v for=%v", p.CtlHangAt, p.CtlHangFor)
	}
	if len(p.RecyclerWedgeAt) > 0 {
		fmt.Fprintf(&b, " recyclerwedge=%v rearm=%v", p.RecyclerWedgeAt, p.RecyclerWedgeFor)
	}
	if p.ReimageFaultsActive() {
		fmt.Fprintf(&b, " reimage=%.2f/%.2f/%.2f/%.2f",
			p.ReimageNetbootHang, p.ReimageXferStall, p.ReimageXferCorrupt, p.ReimagePowerStick)
	}
	return b.String()
}
