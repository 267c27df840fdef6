package report

import (
	"maps"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
)

// Fold is the farm's flow activity folded from its journal's flow events:
// what the Fig. 7 report, CrossCheck and the experiments read. Per scope
// (one subfarm's router) it keeps the report rows and policy counts of each
// inmate VLAN, the closed flows' counts per FlowClass, the counts CrossCheck
// compares with the registry, and the state of the flows still live, keyed
// by flow id (obs.Event.Flow). A closed flow is only counted, so the fold
// grows with the live flows and with what the report prints, never with the
// flows a run has seen. Install it with Journal.Follow, before the run, so
// it sees every event whatever sink the run attaches (the farm does).
type Fold struct {
	scopes   map[string]*scopeFold
	lastName string
	last     *scopeFold
}

// FlowClass is what the experiments count flows by.
type FlowClass struct {
	Verdict shim.Verdict // 0 for a flow never adjudicated
	Port    uint16       // destination port as the initiator addressed it
	Inbound bool         // the initiator is outside the farm
}

// scopeFold is one router's share of the fold.
type scopeFold struct {
	created, verdicts, failClosed uint64
	vlans                         map[uint16]*vlanFold
	closed                        map[FlowClass]int
	live                          map[uint32]liveFlow
}

// vlanFold is one inmate VLAN's report section: the policies that decided
// its flows, and its closed adjudicated flows' rows.
type vlanFold struct {
	policies map[string]int
	rows     map[rowKey]aggRow
}

// rowKey names one "annotation -> target/port/#flows" line of a section.
type rowKey struct {
	verdict    shim.Verdict
	annotation string
}

// aggRow is one line's tally: the first flow's target and port, and
// whether any other flow's differed.
type aggRow struct {
	target      netstack.Addr
	port        uint16
	mixedTarget bool
	mixedPort   bool
	flows       int
}

// liveFlow is what a flow's later events need of its earlier ones.
type liveFlow struct {
	target     netstack.Addr
	verdict    shim.Verdict
	vlan, port uint16
	inbound    bool
	annotation string
}

// NewFold returns an empty fold.
func NewFold() *Fold { return &Fold{scopes: make(map[string]*scopeFold)} }

// WriteEvent folds one journal event; only flow events (those carrying a
// flow id) count. It implements obs.Sink.
func (f *Fold) WriteEvent(e obs.Event) error {
	if e.Flow == 0 {
		return nil
	}
	s := f.last
	if s == nil || e.Scope != f.lastName {
		if s = f.scopes[e.Scope]; s == nil {
			s = &scopeFold{
				vlans:  make(map[uint16]*vlanFold),
				closed: make(map[FlowClass]int),
				live:   make(map[uint32]liveFlow),
			}
			f.scopes[e.Scope] = s
		}
		f.last, f.lastName = s, e.Scope
	}
	switch e.Type {
	case obs.EvFlowCreated:
		s.created++
		s.vlan(e.VLAN)
		s.live[e.Flow] = liveFlow{
			target: netstack.Addr(e.DstIP), vlan: e.VLAN, port: e.DstPort, inbound: e.Inbound,
		}
	case obs.EvFlowVerdict:
		s.verdicts++
		if e.Detail != "" {
			s.vlan(e.VLAN).policies[e.Detail]++
		}
		if lf, ok := s.live[e.Flow]; ok {
			lf.verdict, lf.annotation = shim.Verdict(e.Verdict), e.Annotation
			s.live[e.Flow] = lf
		}
	case obs.EvFlowFailClosed:
		s.failClosed++
		if lf, ok := s.live[e.Flow]; ok {
			lf.verdict = shim.Verdict(e.Verdict)
			s.live[e.Flow] = lf
		}
	case obs.EvFlowClosed:
		lf := liveFlow{
			target: netstack.Addr(e.DstIP), verdict: s.live[e.Flow].verdict,
			vlan: e.VLAN, port: e.DstPort, inbound: e.Inbound, annotation: e.Annotation,
		}
		delete(s.live, e.Flow)
		s.closed[lf.class()]++
		lf.tally(s.vlan(lf.vlan).rows)
	}
	return nil
}

// vlan returns a VLAN's section, making it on the VLAN's first flow.
func (s *scopeFold) vlan(v uint16) *vlanFold {
	vf := s.vlans[v]
	if vf == nil {
		vf = &vlanFold{policies: make(map[string]int), rows: make(map[rowKey]aggRow)}
		s.vlans[v] = vf
	}
	return vf
}

func (lf liveFlow) class() FlowClass {
	return FlowClass{Verdict: lf.verdict, Port: lf.port, Inbound: lf.inbound}
}

// tally adds the flow to its report row, if it was adjudicated.
func (lf liveFlow) tally(rows map[rowKey]aggRow) {
	if lf.verdict == 0 {
		return
	}
	ann := lf.annotation
	if ann == "" {
		ann = "(unannotated)"
	}
	k := rowKey{lf.verdict, ann}
	row, seen := rows[k]
	if !seen {
		row.target, row.port = lf.target, lf.port
	}
	row.mixedTarget = row.mixedTarget || row.target != lf.target
	row.mixedPort = row.mixedPort || row.port != lf.port
	row.flows++
	rows[k] = row
}

// scope returns a scope's fold, empty when it has seen no flow.
func (f *Fold) scope(name string) *scopeFold {
	if f != nil {
		if s := f.scopes[name]; s != nil {
			return s
		}
	}
	return &scopeFold{}
}

// Flows counts the flows of a scope, closed and live, whose class match
// accepts.
func (f *Fold) Flows(scope string, match func(FlowClass) bool) int {
	s := f.scope(scope)
	n := 0
	for c, k := range s.closed {
		if match(c) {
			n += k
		}
	}
	for _, lf := range s.live {
		if match(lf.class()) {
			n++
		}
	}
	return n
}

// rows returns each VLAN's rows over every adjudicated flow: the closed
// flows' tallies with the live flows added to a copy.
func (s *scopeFold) rows() map[uint16]map[rowKey]aggRow {
	out := make(map[uint16]map[rowKey]aggRow, len(s.vlans))
	for v, vf := range s.vlans {
		out[v] = maps.Clone(vf.rows)
	}
	for _, lf := range s.live {
		lf.tally(out[lf.vlan])
	}
	return out
}
