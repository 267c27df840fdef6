package farm

import (
	"fmt"
	"time"

	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/nat"
	"gq/internal/netstack"
)

// WormExperiment runs GQ's original worm-capturing honeyfarm (§2, §7.1):
// inmates present vulnerable services; the traditional honeyfarm model
// lets external traffic infect them directly (inbound NAT forwarding); the
// WormCapture containment policy redirects outbound propagation attempts
// to additional analysis machines in the farm, so infection chains stay
// internal and incubation periods are measurable.
type WormExperiment struct {
	Farm    *Farm
	Subfarm *Subfarm
	Spec    malware.WormSpec

	// Infections holds the time of every INFECT delivery observed, in
	// order.
	Infections []time.Duration

	worms   map[uint16]*malware.Worm
	nextVic int
}

// wormVictims implements policy.VictimPool over the experiment's inmates.
type wormVictims struct{ e *WormExperiment }

// VictimFor implements policy.VictimPool: round-robin over running inmates
// other than the scanner itself.
func (v wormVictims) VictimFor(vlan uint16, dst netstack.Addr) (netstack.Addr, bool) {
	sf := v.e.Subfarm
	// Deterministic round-robin across VLAN order.
	vlans := sf.InmateVLANs()
	for i := 0; i < len(vlans); i++ {
		cand := vlans[(v.e.nextVic+i)%len(vlans)]
		if cand == vlan {
			continue
		}
		fi := sf.Inmates[cand]
		internal, _, ok := sf.Router.InmateByVLAN(cand)
		if !ok || fi.State.String() != "running" {
			continue
		}
		v.e.nextVic = (v.e.nextVic + i + 1) % len(vlans)
		return internal, true
	}
	return 0, false
}

// NewWormExperiment builds a honeyfarm subfarm for one Table 1 capture
// with the given number of honeypot inmates.
func NewWormExperiment(seed int64, spec malware.WormSpec, inmates int) (*WormExperiment, error) {
	e := &WormExperiment{Spec: spec, worms: make(map[uint16]*malware.Worm)}
	wormfarm := SubfarmSpec{
		SubfarmConfig: SubfarmConfig{
			Name:   "wormfarm",
			VLANLo: 100, VLANHi: uint16(100 + inmates + 4),
			ServiceVLAN:  90,
			GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
			InboundMode:  nat.ForwardInbound,
			PolicyConfig: fmt.Sprintf("[VLAN 100-%d]\nDecider = WormCapture\n", 100+inmates+4),
		},
		// Honeypot boot: a vulnerable service instead of auto-infection.
		OnBoot: func(fi *FarmInmate) {
			vlan := fi.VLAN
			malware.InstallVulnerableService(fi.Host, func(exe, name string) {
				e.onInfect(fi, vlan, exe, name)
			}, malware.WormPorts...)
		},
	}
	for i := 0; i < inmates; i++ {
		wormfarm.Inmates = append(wormfarm.Inmates, fmt.Sprintf("honeypot-%d", i))
	}
	f, err := Spec{Layout: Layout{Seed: seed}, Subfarms: []SubfarmSpec{wormfarm}}.Build()
	if err != nil {
		return nil, err
	}
	e.Farm, e.Subfarm = f, f.Subfarms[0]
	e.Subfarm.Policy.Victims = wormVictims{e}
	return e, nil
}

func (e *WormExperiment) onInfect(fi *FarmInmate, vlan uint16, exe, name string) {
	e.Infections = append(e.Infections, e.Farm.Sim.Now())
	if _, already := e.worms[vlan]; already {
		return // reinfection of a running instance: counted, not re-executed
	}
	ctx := &malware.Context{
		Host: fi.Host, Sim: e.Farm.Sim,
		// The worm scans the global pool — random Internet addresses from
		// its point of view; containment redirects them to victims.
		ScanPrefix: e.Subfarm.Config.GlobalPool,
	}
	w := malware.NewWorm(e.Spec, ctx)
	e.worms[vlan] = w
	fi.Specimen = w
	w.Execute()
}

// Seed infects the first honeypot from an external attacker through the
// farm's inbound path (the traditional honeyfarm model).
func (e *WormExperiment) Seed() {
	attacker := e.Farm.AddExternalHost("patient-zero", netstack.MustParseAddr("203.0.113.66"))
	// Find the lowest-VLAN inmate's global address once it has one.
	var tryInfect func(attempt int)
	tryInfect = func(attempt int) {
		if attempt > 100 {
			return
		}
		var target netstack.Addr
		var lowest uint16 = 65535
		for vlan := range e.Subfarm.Inmates {
			if vlan < lowest {
				if b := e.Subfarm.Router.NAT().ByVLAN(vlan); b != nil {
					lowest = vlan
					target = b.Global
				}
			}
		}
		if target == 0 {
			// DHCP chatter has not established the binding yet.
			e.Farm.Sim.Schedule(2*time.Second, func() { tryInfect(attempt + 1) })
			return
		}
		e.exploitFromOutside(attacker, target, 1)
	}
	tryInfect(0)
}

// exploitFromOutside drives the staged exploit from the external attacker,
// mirroring the worm's own connection sequence.
func (e *WormExperiment) exploitFromOutside(attacker *host.Host, target netstack.Addr, stage int) {
	c := attacker.Dial(target, e.Spec.Port())
	last := stage == e.Spec.Conns
	connected := false
	c.OnConnect = func() {
		connected = true
		if last {
			c.Write([]byte(fmt.Sprintf("INFECT %s %s\n", e.Spec.Executable, e.Spec.Name)))
		} else {
			c.Write([]byte(fmt.Sprintf("EXPLOIT %d/%d %s\n", stage, e.Spec.Conns, e.Spec.Executable)))
		}
		c.Abort()
		if !last {
			e.Farm.Sim.Schedule(200*time.Millisecond, func() {
				e.exploitFromOutside(attacker, target, stage+1)
			})
		}
	}
	c.OnClose = func(err error) {
		if !connected {
			// Inbound path not ready yet; retry shortly.
			e.Farm.Sim.Schedule(2*time.Second, func() {
				e.exploitFromOutside(attacker, target, stage)
			})
		}
	}
}

// Result summarises the experiment for Table 1: the observed event count,
// connections per infection, and the measured incubation period (delay
// from the seed infection to the next inmate infection).
type WormResult struct {
	Events     int
	Incubation time.Duration
}

// Result computes the measured quantities.
func (e *WormExperiment) Result() WormResult {
	r := WormResult{Events: len(e.Infections)}
	if len(e.Infections) >= 2 {
		// Incubation: delay from the first (seeded) infection to the next
		// inmate's infection.
		r.Incubation = e.Infections[1] - e.Infections[0]
	}
	return r
}
