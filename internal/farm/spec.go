package farm

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/rawiron"
	"gq/internal/supervisor"
	"gq/internal/trace"
)

// Spec describes a whole farm as a value; Build is the one place it is
// wired. The field table, the build order and the reason for each step are
// DESIGN.md §3j.
type Spec struct {
	Layout

	// Journal, when set, receives the run's NDJSON event journal from the
	// first event on.
	Journal io.Writer

	External []ExternalHost
	Subfarms []SubfarmSpec

	// Supervise attaches the supervision tree (Farm.SuperviseTree) last,
	// tuned by Supervisor.
	Supervise  bool
	Supervisor supervisor.Config
}

// Layout places the farm's simulation: one domain on the calling goroutine,
// or — Sharded — a domain per subfarm plus one external domain, driven by
// Workers goroutines (0 = GOMAXPROCS). A sharded journal is byte-identical
// across worker counts for a fixed Seed, though not to the serial run's.
type Layout struct {
	Seed    int64
	Sharded bool
	Workers int
}

// ExternalHost is one machine on the flat Internet segment. Serve installs
// what it serves; nil leaves a bare endpoint.
type ExternalHost struct {
	Name  string
	Addr  netstack.Addr
	Serve func(f *Farm, h *host.Host) error
}

// SubfarmSpec is a SubfarmConfig plus what populates the habitat. With a
// PolicyConfig, each of the VLAN range (VLANLo = VLANHi = 0), SampleLibrary
// and CCHosts left zero is derived from the Fig. 6 text.
type SubfarmSpec struct {
	SubfarmConfig

	// Inmates names the VM inmates, created in order on ascending VLANs.
	Inmates []string
	// Iron > 0 adds that many raw-iron boxes on a started recycler.
	Iron      int
	IronPool  rawiron.Config
	IronCycle RecyclerConfig
	// FacadeEcho > 0 attaches the blocking-facade self-test pair, one
	// round trip per interval.
	FacadeEcho time.Duration
	// OnBoot replaces the auto-infection boot sequence.
	OnBoot func(*FarmInmate)
	// Trace, when set, records the subfarm tap as pcap, each packet stamped
	// with the clock of the domain the router runs in.
	Trace *trace.Writer
}

// Build wires the farm in the one valid order (DESIGN.md §3j). Every error
// names its subfarm; Farm.Warnings carries what was odd but not fatal.
func (sp Spec) Build() (*Farm, error) {
	subfarms := slices.Clone(sp.Subfarms)
	var warnings []string
	for i := range subfarms {
		a := &subfarms[i]
		w, err := a.derive()
		if err != nil {
			return nil, fmt.Errorf("subfarm %s: %w", a.Name, err)
		}
		warnings = append(warnings, w...)
		for _, b := range subfarms[:i] {
			if a.VLANLo <= b.VLANHi && b.VLANLo <= a.VLANHi {
				return nil, fmt.Errorf("subfarm %s: VLAN range %d-%d overlaps subfarm %s (%d-%d)",
					a.Name, a.VLANLo, a.VLANHi, b.Name, b.VLANLo, b.VLANHi)
			}
		}
	}
	if sp.Supervise && len(subfarms) == 0 {
		return nil, errors.New("farm: a supervision tree needs at least one subfarm")
	}

	var f *Farm
	if sp.Sharded {
		f = NewSharded(sp.Seed, sp.Workers)
	} else {
		f = New(sp.Seed)
	}
	f.Warnings = warnings
	if sp.Journal != nil {
		f.journal = f.Sim.Obs().Journal.AttachNDJSON(sp.Journal)
	}
	for _, e := range sp.External {
		if h := f.AddExternalHost(e.Name, e.Addr); e.Serve != nil {
			if err := e.Serve(f, h); err != nil {
				return nil, fmt.Errorf("external host %s: %w", e.Name, err)
			}
		}
	}
	for _, s := range subfarms {
		if err := s.build(f); err != nil {
			return nil, fmt.Errorf("subfarm %s: %w", s.Name, err)
		}
	}
	if sp.Supervise {
		f.SuperviseTree(sp.Supervisor)
	}
	return f, nil
}

func (s SubfarmSpec) build(f *Farm) error {
	sf, err := f.AddSubfarm(s.SubfarmConfig)
	if err != nil {
		return err
	}
	if s.FacadeEcho > 0 {
		sf.AttachFacadeEcho(s.FacadeEcho, 0)
	}
	sf.OnBootHook = s.OnBoot
	if s.Trace != nil {
		sf.Router.AddTap(func(p *netstack.Packet) { s.Trace.WritePacket(sf.Sim.WallClock(), p.Marshal()) })
	}
	for _, name := range s.Inmates {
		if _, err := sf.AddInmate(name); err != nil {
			return fmt.Errorf("inmate %s: %w", name, err)
		}
	}
	if s.Iron > 0 {
		if _, err := sf.StartIronRotation(s.Iron, s.IronPool, s.IronCycle); err != nil {
			return fmt.Errorf("raw-iron rotation: %w", err)
		}
	}
	return nil
}

// derive fills what a Fig. 6 text implies: the VLAN range spanning its
// sections plus four spare (probe inmates, raw-iron boxes), one synthesised
// sample per Infection glob whose first dotted component is a behavioural
// family, and the steephost C&C table.
func (s *SubfarmSpec) derive() (warnings []string, err error) {
	if s.PolicyConfig == "" {
		return nil, nil
	}
	pcfg, err := policy.Parse(s.PolicyConfig)
	if err != nil {
		return nil, err
	}
	if s.VLANLo == 0 && s.VLANHi == 0 {
		if len(pcfg.VLANRules) == 0 {
			return nil, errors.New("no [VLAN] section to derive a VLAN range from")
		}
		s.VLANLo = pcfg.VLANRules[0].Lo
		for _, rule := range pcfg.VLANRules {
			s.VLANHi = max(s.VLANHi, rule.Hi+4)
		}
	}
	if s.SampleLibrary == nil {
		for _, rule := range pcfg.VLANRules {
			if rule.Infection == "" {
				continue
			}
			family, _, _ := strings.Cut(rule.Infection, ".")
			if !slices.Contains(malware.Families(), family) {
				warnings = append(warnings, fmt.Sprintf("no behavioural model for family %q", family))
				continue
			}
			name := strings.Replace(rule.Infection, "*", "001", 1)
			s.SampleLibrary = append(s.SampleLibrary, policy.NewSample(name, family, []byte("MZ-"+name)))
		}
	}
	if s.CCHosts == nil {
		s.CCHosts = SteephostCC()
	}
	return warnings, nil
}

// FlushJournal flushes the Spec.Journal sink, if the farm has one.
func (f *Farm) FlushJournal() error {
	if f.journal == nil {
		return nil
	}
	return f.journal.Flush()
}
