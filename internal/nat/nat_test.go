package nat

import (
	"testing"
	"testing/quick"

	"gq/internal/netstack"
)

func table(mode Mode) *Table {
	return NewTable(netstack.MustParsePrefix("192.0.2.0/24"), 16, mode)
}

func outPkt(vlan uint16, src, dst netstack.Addr) *netstack.Packet {
	return &netstack.Packet{
		Eth: netstack.Ethernet{VLAN: vlan, Src: netstack.MAC{2, 0, 0, 0, 0, byte(vlan)}},
		IP:  &netstack.IPv4{Src: src, Dst: dst, TTL: 64, Protocol: netstack.ProtoTCP},
		TCP: &netstack.TCP{SrcPort: 1234, DstPort: 80},
	}
}

func TestLearnAllocatesSequentially(t *testing.T) {
	tb := table(DropInbound)
	b1 := tb.Learn(7, netstack.MustParseAddr("10.0.0.23"), netstack.MAC{2, 0, 0, 0, 0, 7})
	b2 := tb.Learn(8, netstack.MustParseAddr("10.0.0.24"), netstack.MAC{2, 0, 0, 0, 0, 8})
	if b1.Global != netstack.MustParseAddr("192.0.2.16") || b2.Global != netstack.MustParseAddr("192.0.2.17") {
		t.Fatalf("globals %v %v", b1.Global, b2.Global)
	}
	// Same VLAN again: stable binding.
	b1b := tb.Learn(7, netstack.MustParseAddr("10.0.0.23"), b1.MAC)
	if b1b != b1 {
		t.Fatal("binding not stable")
	}
}

func TestRebindAfterRevert(t *testing.T) {
	tb := table(DropInbound)
	b := tb.Learn(7, netstack.MustParseAddr("10.0.0.23"), netstack.MAC{})
	g := b.Global
	// Inmate reverted and got a different lease.
	b2 := tb.Learn(7, netstack.MustParseAddr("10.0.0.55"), netstack.MAC{})
	if b2.Global != g {
		t.Fatal("global address changed on rebind")
	}
	if got := tb.ByVLAN(7); got != b2 || got.Internal != netstack.MustParseAddr("10.0.0.55") {
		t.Fatalf("binding for VLAN 7 = %+v, want the new internal address", got)
	}
}

func TestOutboundRewrite(t *testing.T) {
	tb := table(DropInbound)
	p := outPkt(7, netstack.MustParseAddr("10.0.0.23"), netstack.MustParseAddr("203.0.113.5"))
	if !tb.Outbound(p) {
		t.Fatal("outbound failed")
	}
	if p.IP.Src != netstack.MustParseAddr("192.0.2.16") {
		t.Fatalf("src %v", p.IP.Src)
	}
	if p.IP.Dst != netstack.MustParseAddr("203.0.113.5") {
		t.Fatal("dst changed")
	}
}

func TestInboundDropMode(t *testing.T) {
	tb := table(DropInbound)
	tb.Learn(7, netstack.MustParseAddr("10.0.0.23"), netstack.MAC{})
	p := outPkt(0, netstack.MustParseAddr("203.0.113.5"), netstack.MustParseAddr("192.0.2.16"))
	if tb.Inbound(p) != nil {
		t.Fatal("home-user mode forwarded inbound")
	}
}

func TestInboundForwardMode(t *testing.T) {
	tb := table(ForwardInbound)
	tb.Learn(7, netstack.MustParseAddr("10.0.0.23"), netstack.MAC{})
	p := outPkt(0, netstack.MustParseAddr("203.0.113.5"), netstack.MustParseAddr("192.0.2.16"))
	b := tb.Inbound(p)
	if b == nil || b.VLAN != 7 {
		t.Fatal("inbound not forwarded")
	}
	if p.IP.Dst != netstack.MustParseAddr("10.0.0.23") {
		t.Fatalf("dst %v", p.IP.Dst)
	}
}

func TestInboundUnknownGlobal(t *testing.T) {
	tb := table(ForwardInbound)
	p := outPkt(0, 1, netstack.MustParseAddr("192.0.2.200"))
	if tb.Inbound(p) != nil {
		t.Fatal("unknown global forwarded")
	}
}

func TestReleaseDoesNotRecycle(t *testing.T) {
	tb := table(DropInbound)
	b := tb.Learn(7, netstack.MustParseAddr("10.0.0.23"), netstack.MAC{})
	g := b.Global
	tb.Release(7)
	if tb.ByVLAN(7) != nil || tb.ByGlobal(g) != nil {
		t.Fatal("release incomplete")
	}
	b2 := tb.Learn(8, netstack.MustParseAddr("10.0.0.24"), netstack.MAC{})
	if b2.Global == g {
		t.Fatal("blacklist-prone global address recycled")
	}
}

func TestPoolExhaustion(t *testing.T) {
	tb := NewTable(netstack.MustParsePrefix("192.0.2.0/29"), 5, DropInbound)
	// indices 5,6 available (7 broadcast).
	if tb.Learn(1, 100, netstack.MAC{}) == nil || tb.Learn(2, 101, netstack.MAC{}) == nil {
		t.Fatal("allocation failed early")
	}
	if tb.Learn(3, 102, netstack.MAC{}) != nil {
		t.Fatal("exhausted pool still allocated")
	}
}

func TestBindingsSorted(t *testing.T) {
	tb := table(DropInbound)
	for _, v := range []uint16{9, 3, 7} {
		tb.Learn(v, netstack.Addr(v), netstack.MAC{})
	}
	bs := tb.Bindings()
	if len(bs) != 3 || bs[0].VLAN != 3 || bs[1].VLAN != 7 || bs[2].VLAN != 9 {
		t.Fatalf("order %v", bs)
	}
}

// Property: forward then reverse translation restores the original header
// (NAT invariant from DESIGN.md §5).
func TestPropertyRoundTrip(t *testing.T) {
	f := func(vlan uint16, internal uint32, dst uint32) bool {
		vlan = vlan%4000 + 1
		tb := NewTable(netstack.MustParsePrefix("192.0.2.0/24"), 1, ForwardInbound)
		out := outPkt(vlan, netstack.Addr(internal), netstack.Addr(dst))
		if !tb.Outbound(out) {
			return false
		}
		// Reply: src=dst of out, dst=global.
		in := outPkt(0, netstack.Addr(dst), out.IP.Src)
		b := tb.Inbound(in)
		return b != nil && in.IP.Dst == netstack.Addr(internal) && b.VLAN == vlan
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: global addresses are never double-assigned.
func TestPropertyInjective(t *testing.T) {
	f := func(vlans []uint16) bool {
		tb := table(DropInbound)
		seen := map[netstack.Addr]uint16{}
		for i, v := range vlans {
			v = v%4000 + 1
			b := tb.Learn(v, netstack.Addr(i+1), netstack.MAC{})
			if b == nil {
				continue
			}
			if owner, dup := seen[b.Global]; dup && owner != v {
				return false
			}
			seen[b.Global] = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
