package farm

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/obs"
)

// This file implements the enforcement half of the paper's "verifiable
// containment" wish (§4): where internal/policy.Prober checks what a
// policy WOULD decide, the containment probe checks what the running farm
// actually DOES — synthetic flows from a probe inmate toward canary hosts
// on the simulated Internet, with every canary byte accounted for.

// ProbeTarget is one synthetic flow to attempt.
type ProbeTarget struct {
	Addr netstack.Addr
	Port uint16
}

// ProbeOutcome reports where the probe traffic ended up.
type ProbeOutcome struct {
	// Sent lists every attempted probe, in order.
	Sent []ProbeTarget
	// ReachedCanary maps "addr:port" to the payload observed at the canary
	// — every entry is traffic that escaped the farm.
	ReachedCanary map[string]string
	// SinkFlows is how many probe flows the catch-all sink absorbed.
	SinkFlows int
}

// Escaped lists the probes that reached the outside world, sorted.
func (o *ProbeOutcome) Escaped() []string {
	out := make([]string, 0, len(o.ReachedCanary))
	for k := range o.ReachedCanary {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String summarises the outcome.
func (o *ProbeOutcome) String() string {
	return fmt.Sprintf("containment probe: %d sent, %d escaped, %d sunk",
		len(o.Sent), len(o.ReachedCanary), o.SinkFlows)
}

// DefaultProbeTargets builds the standard canary matrix: two destinations
// crossed with the sensitive ports.
func DefaultProbeTargets() []ProbeTarget {
	var out []ProbeTarget
	for _, addr := range []string{"198.51.100.201", "198.51.100.202"} {
		a := netstack.MustParseAddr(addr)
		for _, port := range []uint16{21, 22, 25, 80, 135, 443, 445, 6667} {
			out = append(out, ProbeTarget{Addr: a, Port: port})
		}
	}
	return out
}

// RunContainmentProbe adds canary hosts for every distinct target address,
// boots a probe inmate in sf that opens one flow per target carrying a
// recognisable payload, runs the farm, and accounts for every byte. The
// caller judges the outcome against the subfarm's policy intent (for
// DefaultDeny, any escape is a containment failure).
func RunContainmentProbe(f *Farm, sf *Subfarm, targets []ProbeTarget, window time.Duration) (*ProbeOutcome, error) {
	if len(targets) == 0 {
		targets = DefaultProbeTargets()
	}
	out := &ProbeOutcome{Sent: targets, ReachedCanary: make(map[string]string)}

	// One canary host per distinct address, listening everywhere. The
	// canaries all run in the one domain external hosts share, so their
	// writes to ReachedCanary are serial.
	seen := map[netstack.Addr]bool{}
	for _, tgt := range targets {
		if seen[tgt.Addr] {
			continue
		}
		seen[tgt.Addr] = true
		h := f.AddExternalHost("canary-"+tgt.Addr.String(), tgt.Addr)
		addr := tgt.Addr
		h.ListenAny(func(c *host.Conn) {
			port := c.LocalPort()
			c.OnData = func(d []byte) {
				key := fmt.Sprintf("%s:%d", addr, port)
				out.ReachedCanary[key] += string(d)
			}
			c.OnPeerClose = func() { c.Close() }
		})
	}

	sinkBefore := sf.CatchAll.TCPConns
	prevHook := sf.OnBootHook
	// The hook must fire for the probe inmate ONLY: any other inmate that
	// happens to boot during the window (e.g. a raw-iron box re-admitted
	// mid-probe) lives on a VLAN whose policy may legitimately forward
	// traffic — running the probe dials from there would count contained-
	// by-policy flows as escapes.
	var probe *FarmInmate
	sf.OnBootHook = func(fi *FarmInmate) {
		if fi != probe {
			if prevHook != nil {
				prevHook(fi)
			}
			return
		}
		for _, tgt := range targets {
			tgt := tgt
			c := fi.Host.Dial(tgt.Addr, tgt.Port)
			c.OnConnect = func() {
				c.Write([]byte(fmt.Sprintf("GQ-CONTAINMENT-PROBE %s:%d", tgt.Addr, tgt.Port)))
				// Half-close after the payload so probe flows tear down and
				// leave the gateway's flow table empty again.
				c.Close()
			}
		}
	}
	probe, err := sf.AddInmate("containment-probe")
	if err != nil {
		sf.OnBootHook = prevHook
		return nil, err
	}
	f.Run(window)
	sf.OnBootHook = prevHook
	probe.Terminate()

	out.SinkFlows = int(sf.CatchAll.TCPConns - sinkBefore)
	// Keep only probe payloads in the canary ledger (other experiment
	// traffic may legitimately reach external hosts).
	for k, v := range out.ReachedCanary {
		if !strings.Contains(v, "GQ-CONTAINMENT-PROBE") {
			delete(out.ReachedCanary, k)
		}
	}
	if len(out.ReachedCanary) > 0 {
		// Containment failed: freeze the subfarm's flight recorder so the
		// events leading up to the escape survive for the post-mortem.
		f.Sim.Obs().Journal.DumpScope(sf.Name,
			fmt.Sprintf("containment probe escaped: %d target(s)", len(out.ReachedCanary)))
		// A supervised subfarm counts the escape as a strike toward inmate
		// quarantine.
		if sf.Supervisor != nil {
			sf.Supervisor.Strike(probe.VLAN, "probe-escape")
		}
	}
	return out, nil
}

// FlightDumps returns the flight-recorder dumps accumulated so far (trigger
// firings, failed containment probes).
func (f *Farm) FlightDumps() []*obs.Dump { return f.Sim.Obs().Journal.Dumps() }
