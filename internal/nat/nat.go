// Package nat implements the gateway's network address translation (§5.3).
// All inmates live in RFC 1918 space; the packet forwarder maps source
// addresses of inside→outside flows to configurable global address space,
// one global address per inmate (bindings are learned dynamically from the
// inmates' boot-time chatter). Depending on configuration, outside→inside
// flows are either dropped (emulating typical home-user setups) or
// forwarded with destination rewriting (providing Internet-reachable
// servers, as Storm's relay proxies require).
package nat

import (
	"fmt"
	"sort"

	"gq/internal/netstack"
)

// Mode selects inbound handling.
type Mode int

const (
	// DropInbound discards unsolicited outside→inside flows.
	DropInbound Mode = iota
	// ForwardInbound rewrites inbound destinations to the bound internal
	// address, making the inmate externally reachable.
	ForwardInbound
)

// Binding is a live internal↔global association for one inmate.
type Binding struct {
	VLAN     uint16
	Internal netstack.Addr
	Global   netstack.Addr
	MAC      netstack.MAC
}

type globalPool struct {
	prefix netstack.Prefix
	next   int
}

// Table is a subfarm's NAT state.
type Table struct {
	mode  Mode
	pools []globalPool

	byVLAN     map[uint16]*Binding
	byInternal map[netstack.Addr]*Binding
	byGlobal   map[netstack.Addr]*Binding
	modeByVLAN map[uint16]Mode
	// gen counts the bindings Release freed (see Gen).
	gen uint64

	// Translated counts rewritten packets per direction.
	TranslatedOut, TranslatedIn, DroppedIn uint64
}

// NewTable creates a table drawing global addresses from pool (the first
// poolStart host indices are reserved for farm infrastructure).
func NewTable(pool netstack.Prefix, poolStart int, mode Mode) *Table {
	return &Table{
		mode:       mode,
		pools:      []globalPool{{prefix: pool, next: poolStart}},
		byVLAN:     make(map[uint16]*Binding),
		byInternal: make(map[netstack.Addr]*Binding),
		byGlobal:   make(map[netstack.Addr]*Binding),
		modeByVLAN: make(map[uint16]Mode),
	}
}

// AddPool grafts additional global address space onto the table — §7.2's
// growth path for when the farm burns through its allocations ("we may opt
// to use GRE tunnels in order to connect additional routable address space
// available in other networks").
func (t *Table) AddPool(pool netstack.Prefix, start int) {
	t.pools = append(t.pools, globalPool{prefix: pool, next: start})
}

// SetVLANMode overrides the inbound mode for one inmate, e.g. making only
// the Storm proxies reachable.
func (t *Table) SetVLANMode(vlan uint16, m Mode) { t.modeByVLAN[vlan] = m }

func (t *Table) inboundMode(vlan uint16) Mode {
	if m, ok := t.modeByVLAN[vlan]; ok {
		return m
	}
	return t.mode
}

// Learn records (or refreshes) the binding for an inmate's internal address,
// allocating a global address on first sight. It returns nil when the
// global pool is exhausted.
func (t *Table) Learn(vlan uint16, internal netstack.Addr, mac netstack.MAC) *Binding {
	if b, ok := t.byVLAN[vlan]; ok {
		if b.Internal != internal {
			// Inmate re-addressed (revert + fresh DHCP lease): rebind.
			delete(t.byInternal, b.Internal)
			b.Internal = internal
			t.byInternal[internal] = b
		}
		b.MAC = mac
		return b
	}
	var g netstack.Addr
	allocated := false
	for i := range t.pools {
		if t.pools[i].next < t.pools[i].prefix.Size()-1 {
			g = t.pools[i].prefix.Nth(t.pools[i].next)
			t.pools[i].next++
			allocated = true
			break
		}
	}
	if !allocated {
		return nil
	}
	b := &Binding{VLAN: vlan, Internal: internal, Global: g, MAC: mac}
	t.byVLAN[vlan] = b
	t.byInternal[internal] = b
	t.byGlobal[g] = b
	return b
}

// Release frees an inmate's binding (inmate expiry). The global address is
// deliberately not recycled: GQ "burns through" global space rather than
// reuse possibly-blacklisted addresses.
func (t *Table) Release(vlan uint16) {
	b, ok := t.byVLAN[vlan]
	if !ok {
		return
	}
	delete(t.byVLAN, vlan)
	delete(t.byInternal, b.Internal)
	delete(t.byGlobal, b.Global)
	t.gen++
}

// Gen is the table's generation, which every Release that frees a binding
// advances. A binding Learn returned is still the table's for its VLAN while
// Gen reads what it did then, so a caller may keep it instead of looking it
// up per packet.
func (t *Table) Gen() uint64 { return t.gen }

// ByVLAN returns the binding for an inmate.
func (t *Table) ByVLAN(vlan uint16) *Binding { return t.byVLAN[vlan] }

// ByInternal returns the binding for an internal address.
func (t *Table) ByInternal(a netstack.Addr) *Binding { return t.byInternal[a] }

// ByGlobal returns the binding for a global address.
func (t *Table) ByGlobal(a netstack.Addr) *Binding { return t.byGlobal[a] }

// Bindings returns all bindings ordered by VLAN, for reports.
func (t *Table) Bindings() []*Binding {
	out := make([]*Binding, 0, len(t.byVLAN))
	for _, b := range t.byVLAN {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VLAN < out[j].VLAN })
	return out
}

// Outbound rewrites the source of an inside→outside packet to the inmate's
// global address. The packet's VLAN identifies the inmate. It returns false
// if no binding exists and none can be learned.
func (t *Table) Outbound(p *netstack.Packet) bool {
	b := t.Learn(p.Eth.VLAN, p.IP.Src, p.Eth.Src)
	if b == nil {
		return false
	}
	p.IP.Src = b.Global
	t.TranslatedOut++
	return true
}

// Inbound rewrites the destination of an outside→inside packet to the
// inmate's internal address and returns its binding; nil means drop
// (unknown global address, or home-user mode).
func (t *Table) Inbound(p *netstack.Packet) *Binding {
	b, ok := t.byGlobal[p.IP.Dst]
	if !ok || t.inboundMode(b.VLAN) != ForwardInbound {
		t.DroppedIn++
		return nil
	}
	p.IP.Dst = b.Internal
	t.TranslatedIn++
	return b
}

// String summarises the table.
func (t *Table) String() string {
	return fmt.Sprintf("nat.Table{%d bindings, %d pools, primary %s}",
		len(t.byVLAN), len(t.pools), t.pools[0].prefix)
}
