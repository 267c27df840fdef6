package gateway

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"gq/internal/nat"
	"gq/internal/netstack"
)

// A router learns from an inmate VLAN's frames through the VLAN's slot
// (DESIGN.md §3b): a frame that repeats what the slot holds writes no table.
// These tests pin that this is only ever a shortcut.

// inmateIP is an IP packet from an inmate to the gateway that no flow takes
// up (neither TCP nor UDP): all it does at the router is teach it the sender.
func inmateIP(vlan uint16, src netstack.MAC, addr netstack.Addr) []byte {
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: src, VLAN: vlan, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Protocol: 1, Src: addr, Dst: netstack.MustParseAddr("10.0.0.1")},
		Payload: []byte("ping"),
	}
	return p.Marshal()
}

// inmateUDP is an inmate's datagram to dstMAC: the gateway (a flow toward
// the containment server) or a service host (bridged).
func inmateUDP(vlan uint16, src, dstMAC netstack.MAC, addr, dst netstack.Addr) []byte {
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: dstMAC, Src: src, VLAN: vlan, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: addr, Dst: dst},
		UDP:     &netstack.UDP{SrcPort: 4000, DstPort: 53},
		Payload: []byte("query"),
	}
	return p.Marshal()
}

// learnPair feeds two routers the same frames. memo learns through its slots;
// ref has them cleared before every frame, so it learns every frame anew,
// as a router without slots would. Nothing either sends, holds in
// its tables or binds may differ.
type learnPair struct {
	t         *testing.T
	memo, ref *lifetimeRig
}

func newLearnPair(t *testing.T) learnPair {
	rig := func() *lifetimeRig {
		rig := newLifetimeRig(t, func(cfg *RouterConfig) { cfg.InboundMode = nat.ForwardInbound })
		rig.r.vlanARP[vlanAddr{2, rig.r.cfg.ContainmentCluster[0].IP}] = csMAC
		return rig
	}
	return learnPair{t, rig(), rig()}
}

// step does the same to both routers, lets the frames land and compares.
func (lp learnPair) step(what string, do func(*lifetimeRig)) {
	lp.t.Helper()
	for i := range lp.ref.r.inmates {
		s := &lp.ref.r.inmates[i]
		s.srcOK, s.bind = false, nil
	}
	for _, rig := range []*lifetimeRig{lp.memo, lp.ref} {
		do(rig)
		rig.settle()
	}
	m, f := lp.memo, lp.ref
	for _, w := range []struct {
		name      string
		got, want *framePort
	}{{"trunk", m.trunk, f.trunk}, {"outside", m.outside, f.outside}} {
		if len(w.got.frames) != len(w.want.frames) {
			lp.t.Fatalf("%s: %d frames on the %s, per-frame learning sends %d", what, len(w.got.frames), w.name, len(w.want.frames))
		}
		for i := range w.got.frames {
			if !bytes.Equal(w.got.frames[i], w.want.frames[i]) {
				lp.t.Fatalf("%s: %s frame %d differs from per-frame learning's", what, w.name, i)
			}
		}
		w.got.frames, w.want.frames = nil, nil
	}
	if !reflect.DeepEqual(m.r.macTable, f.r.macTable) {
		lp.t.Fatalf("%s: macTable %v, per-frame learning %v", what, m.r.macTable, f.r.macTable)
	}
	if !reflect.DeepEqual(m.r.inmateVLAN, f.r.inmateVLAN) {
		lp.t.Fatalf("%s: inmateVLAN %v, per-frame learning %v", what, m.r.inmateVLAN, f.r.inmateVLAN)
	}
	if got, want := bindings(m.r), bindings(f.r); !reflect.DeepEqual(got, want) {
		lp.t.Fatalf("%s: NAT bindings %+v, per-frame learning %+v", what, got, want)
	}
	for i := range m.r.inmates {
		if a, b := m.r.inmates[i], f.r.inmates[i]; a.mac != b.mac || a.hasMAC != b.hasMAC {
			lp.t.Fatalf("%s: VLAN %d's inmate MAC %v, per-frame learning %v", what, i+int(m.r.cfg.VLANLo), a.mac, b.mac)
		}
	}
}

func bindings(r *Router) []nat.Binding {
	var out []nat.Binding
	for _, b := range r.nat.Bindings() {
		out = append(out, *b)
	}
	return out
}

// A MAC that moves across VLANs, an address another inmate takes over, and a
// NAT binding released and learned anew each void what a slot holds: frames,
// tables and bindings stay those of per-frame learning, first in the order a
// reimaged inmate goes through them, then in seeded storms.
func TestRouterLearnsOnChange(t *testing.T) {
	a, a2 := netstack.MustParseAddr("10.0.0.5"), netstack.MustParseAddr("10.0.0.6")
	out := netstack.MustParseAddr("198.51.100.1")
	lp := newLearnPair(t)
	send := func(frame []byte) func(*lifetimeRig) {
		return func(rig *lifetimeRig) { rig.trunk.port.Send(frame) }
	}
	toInmate := func(vlan uint16, dst netstack.Addr) func(*lifetimeRig) {
		return func(rig *lifetimeRig) {
			rig.r.sendToVLAN(&netstack.Packet{
				Eth: netstack.Ethernet{EtherType: netstack.EtherTypeIPv4},
				IP:  &netstack.IPv4{TTL: 64, Protocol: 1, Src: out, Dst: dst}, Payload: []byte("pong"),
			}, vlan)
		}
	}

	lp.step("first frame", send(inmateUDP(12, inmateMAC(12), GatewayMAC, a, out)))
	lp.step("repeat", send(inmateUDP(12, inmateMAC(12), GatewayMAC, a, out)))
	lp.step("MAC seen on VLAN 13", send(inmateUDP(13, inmateMAC(12), csMAC, a2, lp.memo.r.cfg.ContainmentCluster[0].IP)))
	lp.step("MAC back on VLAN 12", send(inmateIP(12, inmateMAC(12), a)))
	if vlan := lp.memo.r.macTable[inmateMAC(12)]; vlan != 12 {
		t.Fatalf("macTable places %v on VLAN %d after it came back to 12", inmateMAC(12), vlan)
	}
	lp.step("VLAN 13 takes the address", send(inmateIP(13, inmateMAC(13), a)))
	lp.step("VLAN 12 takes it back", send(inmateIP(12, inmateMAC(12), a)))
	if vlan := lp.memo.r.inmateVLAN[a]; vlan != 12 {
		t.Fatalf("inmateVLAN places %v on VLAN %d after VLAN 12 took it back", a, vlan)
	}
	lp.step("re-addressed", send(inmateIP(12, inmateMAC(12), a2)))
	lp.step("new MAC", send(inmateIP(12, inmateMAC(14), a2)))
	lp.step("to the inmate", toInmate(12, a2))
	before := lp.memo.r.nat.ByVLAN(12).Global
	lp.step("released", func(rig *lifetimeRig) { rig.r.NAT().Release(12) })
	lp.step("learned anew", send(inmateIP(12, inmateMAC(14), a2)))
	if b := lp.memo.r.nat.ByVLAN(12); b == nil || b.Global == before {
		t.Fatalf("VLAN 12 bound to %+v after Release and a frame, want a fresh global address", b)
	}

	for seed := int64(1); seed <= 10; seed++ {
		lp := newLearnPair(t)
		rng := rand.New(rand.NewSource(seed))
		vlans := []uint16{12, 13, 14}
		for i := 0; i < 1500; i++ {
			vlan := vlans[rng.Intn(len(vlans))]
			mac := inmateMAC(vlans[rng.Intn(len(vlans))])
			addr := netstack.AddrFrom4(10, 0, 0, byte(5+rng.Intn(3)))
			switch rng.Intn(6) {
			case 0:
				lp.step("ARP", send(arpReply(vlan, addr, mac)))
			case 1:
				lp.step("flow", send(inmateUDP(vlan, mac, GatewayMAC, addr, out)))
			case 2:
				lp.step("bridged", send(inmateUDP(vlan, mac, csMAC, addr, lp.memo.r.cfg.ContainmentCluster[0].IP)))
			case 3:
				lp.step("to the inmate", toInmate(vlan, addr))
			case 4:
				if rng.Intn(4) == 0 {
					lp.step("released", func(rig *lifetimeRig) { rig.r.NAT().Release(vlan) })
				}
			default:
				lp.step("ping", send(inmateIP(vlan, mac, addr)))
			}
		}
	}
}

// An inmate chooses its addresses, so inmateVLAN has macTable's bound: 10k
// spoofed source addresses on one inmate VLAN stop growing it at
// maxLearnedMACs and are counted, and an address held before the storm still
// follows its inmate to another VLAN.
func TestInmateVLANIsBounded(t *testing.T) {
	const flood = 10000
	rig := newLifetimeRig(t)
	inmate := netstack.MustParseAddr("10.0.0.5")
	rig.trunk.port.Send(inmateIP(12, inmateMAC(12), inmate))
	rig.settle()
	held := len(rig.r.inmateVLAN)
	for i := 0; i < flood; i++ {
		spoofed := netstack.AddrFrom4(10, 0, byte(1+i>>8), byte(i)) // inside InternalPrefix
		rig.trunk.port.Send(inmateIP(12, inmateMAC(12), spoofed))
	}
	rig.settle()
	if n := len(rig.r.inmateVLAN); n > maxLearnedMACs {
		t.Fatalf("inmateVLAN holds %d addresses after %d spoofed sources, bound is %d", n, flood, maxLearnedMACs)
	}
	refused := rig.s.Obs().Snapshot().Counter("subfarm.lifetime.inmate_addr_full")
	if want := uint64(held + flood - maxLearnedMACs); refused != want {
		t.Errorf("subfarm.lifetime.inmate_addr_full = %d after the storm, want %d", refused, want)
	}

	// Full: the held address moves with its inmate, a new one is turned away.
	late := netstack.MustParseAddr("10.0.200.1")
	rig.trunk.port.Send(inmateIP(13, inmateMAC(13), inmate))
	rig.trunk.port.Send(inmateIP(14, inmateMAC(14), late))
	rig.settle()
	if vlan := rig.r.inmateVLAN[inmate]; vlan != 13 {
		t.Errorf("held address on VLAN %d after its inmate moved to 13", vlan)
	}
	if _, ok := rig.r.inmateVLAN[late]; ok {
		t.Error("a new address was learned into the full table")
	}
}

// Every key the router hashes per frame is padding-free, so the runtime hashes
// it as one block of memory; vlanAddr takes the 64-bit fast path.
func TestMapKeysArePaddingFree(t *testing.T) {
	for _, k := range []struct {
		key        any
		size, want uintptr
	}{
		{flowKey{}, unsafe.Sizeof(flowKey{}), 16},
		{synTombKey{}, unsafe.Sizeof(synTombKey{}), 16},
		{vlanAddr{}, unsafe.Sizeof(vlanAddr{}), 8},
	} {
		typ := reflect.TypeOf(k.key)
		var fields uintptr
		for i := 0; i < typ.NumField(); i++ {
			fields += typ.Field(i).Type.Size()
		}
		if k.size != fields || k.size != k.want {
			t.Errorf("%v is %d bytes for %d bytes of fields, want %d for %d", typ, k.size, fields, k.want, k.want)
		}
	}
}

// Every contained flow holds a Flow, every spliced one a gwSender, and every
// UDP or REWRITE flow a rareState: each fits the size class named here.
func TestFlowFitsSizeClass(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"Flow", unsafe.Sizeof(Flow{}), 208},
		{"gwSender", unsafe.Sizeof(gwSender{}), 128},
		{"rareState", unsafe.Sizeof(rareState{}), 80},
	} {
		if c.size > c.want {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.want)
		}
	}
}
