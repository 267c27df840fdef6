package gateway

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"gq/internal/nat"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// Every receive path of the gateway parses into a buffer it owns, so a
// *Packet is valid only until that receive call returns (DESIGN.md §3b).
// These tests cover the places that hold on to traffic across calls, or
// parse while another packet is still live: the ARP-pending queues, GRE
// decapsulation, and the spliced relay that now rewrites the responder's
// frame instead of building a new one.

// lifetimeRig is the sweep rig with something listening on both gateway
// ports: frames the gateway transmits land in trunk and outside.
type lifetimeRig struct {
	s              *sim.Simulator
	g              *Gateway
	r              *Router
	trunk, outside *framePort
	// peer is a cooperating network's GRE router on a wire of its own,
	// attached by grePeer.
	peer     *GREPeer
	peerWire *framePort
}

func (rig *lifetimeRig) grePeer() *GREPeer {
	if rig.peer == nil {
		rig.peer = NewGREPeer(rig.s, GRETunnel{
			LocalAddr: netstack.MustParseAddr("192.0.2.2"),
			PeerAddr:  netstack.MustParseAddr("198.51.100.254"),
			ExtraPool: netstack.MustParsePrefix("203.0.114.0/24"),
		})
		rig.peerWire = newFramePort(rig.s, "peer-wire")
		netsim.Connect(rig.peerWire.port, rig.peer.Port(), 0)
	}
	return rig.peer
}

// framePort is a wire end that keeps every frame it receives.
type framePort struct {
	port   *netsim.Port
	frames [][]byte
	// recycle, when set, is the list each received frame goes back to once
	// frames holds a copy of it.
	recycle *netsim.Frames
}

func newFramePort(s *sim.Simulator, name string) *framePort {
	fp := &framePort{}
	fp.port = netsim.NewPort(s, name, func(f []byte) {
		if fp.recycle == nil {
			fp.frames = append(fp.frames, f)
			return
		}
		fp.frames = append(fp.frames, append([]byte(nil), f...))
		fp.recycle.Put(f)
	})
	return fp
}

// take returns the frames received since the last call, parsed.
func (fp *framePort) take(t *testing.T) []*netstack.Packet {
	t.Helper()
	var out []*netstack.Packet
	for _, f := range fp.frames {
		p, err := netstack.ParseFrame(f)
		if err != nil {
			t.Fatalf("gateway emitted a frame that does not parse: %v", err)
		}
		out = append(out, p)
	}
	fp.frames = nil
	return out
}

// newLifetimeRig builds the rig; tweak, if given, edits the router's
// configuration first.
func newLifetimeRig(t *testing.T, tweak ...func(*RouterConfig)) *lifetimeRig {
	t.Helper()
	s := sim.New(1)
	g := New(s)
	cfg := RouterConfig{
		Name:   "lifetime",
		VLANLo: 10, VLANHi: 20,
		ServiceVLANs:       []uint16{2},
		InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:           netstack.MustParseAddr("10.0.0.1"),
		ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP:    netstack.MustParseAddr("10.3.0.254"),
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
		GlobalPoolStart:    16,
		ContainmentCluster: []ContainmentEndpoint{{VLAN: 2, IP: netstack.MustParseAddr("10.3.0.1"), Port: 6666}},
		NonceIP:            netstack.MustParseAddr("10.4.0.1"),
	}
	for _, fn := range tweak {
		fn(&cfg)
	}
	r := g.AddRouterIn(g.Sim, cfg)
	rig := &lifetimeRig{s: s, g: g, r: r, trunk: newFramePort(s, "trunk-wire"), outside: newFramePort(s, "outside-wire")}
	netsim.Connect(rig.trunk.port, g.Trunk(), 0)
	netsim.Connect(rig.outside.port, g.Outside(), 0)
	return rig
}

// settle runs long enough for frames in flight to land, well short of any
// timer.
func (rig *lifetimeRig) settle() { rig.s.RunFor(time.Millisecond) }

var (
	csMAC  = netstack.MAC{2, 0, 0, 0, 0, 0x66}
	extMAC = netstack.MAC{2, 0, 0, 0, 0, 0xee}
)

func inmateMAC(vlan uint16) netstack.MAC { return netstack.MAC{2, 0, 0, 0, 1, byte(vlan)} }

// synFrom is an inmate's SYN toward an external server, as it arrives on
// the trunk.
func synFrom(vlan uint16, src netstack.Addr, sport uint16, isn uint32) []byte {
	p := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: GatewayMAC, Src: inmateMAC(vlan), VLAN: vlan, EtherType: netstack.EtherTypeIPv4},
		IP:  &netstack.IPv4{TTL: 64, ID: uint16(isn), Src: src, Dst: netstack.MustParseAddr("198.51.100.1")},
		TCP: &netstack.TCP{SrcPort: sport, DstPort: 80, Seq: isn, Flags: netstack.FlagSYN, Window: 65535},
	}
	return p.Marshal()
}

// arpReply announces (ip is-at mac) to the gateway on a VLAN (NoVLAN: on
// the outside interface).
func arpReply(vlan uint16, ip netstack.Addr, mac netstack.MAC) []byte {
	p := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: GatewayMAC, Src: mac, VLAN: vlan, EtherType: netstack.EtherTypeARP},
		ARP: &netstack.ARP{Op: netstack.ARPReply, SenderHW: mac, SenderIP: ip, TargetHW: GatewayMAC},
	}
	return p.Marshal()
}

// Two different inmates' SYNs park behind the containment server's
// unresolved address, a third frame is parsed in between, then the server
// answers ARP: both SYNs must leave as they were parked. A queue of packet
// pointers into the receive path's parse buffer would emit the third frame's
// fields twice.
func TestVLANPendingPacketsSurviveLaterFrames(t *testing.T) {
	rig := newLifetimeRig(t)
	a, b := netstack.MustParseAddr("10.0.0.5"), netstack.MustParseAddr("10.0.0.6")
	rig.trunk.port.Send(synFrom(12, a, 1111, 1000))
	rig.trunk.port.Send(synFrom(13, b, 2222, 2000))
	rig.settle()
	key := vlanAddr{2, rig.r.cfg.ContainmentCluster[0].IP}
	if n := len(rig.r.vlanPending.Parked(key)); n != 2 {
		t.Fatalf("%d SYNs parked behind the containment server's address, want 2", n)
	}
	// In between: traffic of other shapes through the same receive path.
	rig.trunk.port.Send(arpReply(14, netstack.MustParseAddr("10.0.0.7"), inmateMAC(14)))
	udp := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: inmateMAC(14), VLAN: 14, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: netstack.MustParseAddr("10.0.0.7"), Dst: rig.r.cfg.RouterIP},
		UDP:     &netstack.UDP{SrcPort: 7, DstPort: 7},
		Payload: []byte("to the gateway itself: dropped"),
	}
	rig.trunk.port.Send(udp.Marshal())
	rig.settle()
	rig.trunk.take(t) // the ARP request for the server

	rig.trunk.port.Send(arpReply(2, rig.r.cfg.ContainmentCluster[0].IP, csMAC))
	rig.settle()
	got := rig.trunk.take(t)
	if len(got) != 2 {
		t.Fatalf("%d frames flushed, want the 2 parked SYNs", len(got))
	}
	for i, want := range []struct {
		src   netstack.Addr
		sport uint16
		isn   uint32
	}{{a, 1111, 1000}, {b, 2222, 2000}} {
		p := got[i]
		if p.TCP == nil || p.IP.Src != want.src || p.TCP.SrcPort != want.sport || p.TCP.Seq != want.isn || p.IP.ID != uint16(want.isn) {
			t.Errorf("flushed frame %d is %v, want the SYN of %v:%d seq %d", i, p, want.src, want.sport, want.isn)
		}
		if p.Eth.Dst != csMAC || p.Eth.VLAN != 2 || p.IP.Dst != rig.r.cfg.ContainmentCluster[0].IP || p.TCP.DstPort != rig.r.cfg.ContainmentCluster[0].Port {
			t.Errorf("flushed frame %d not redirected to the containment server: %v", i, p)
		}
	}
	if n := rig.r.vlanPending.Len(); n != 0 {
		t.Errorf("%d waits left after the flush", n)
	}
}

// Each gateway-side ARP-pending queue holds netstack.MaxARPPending frames
// for a dead neighbour, drops and counts the rest, asks three times, and
// forgets everything when the neighbour is given up.
func TestARPPendingQueuesAreBounded(t *testing.T) {
	const flood = 10000
	datagram := func(dst netstack.Addr) *netstack.Packet {
		return &netstack.Packet{
			Eth:     netstack.Ethernet{EtherType: netstack.EtherTypeIPv4},
			IP:      &netstack.IPv4{TTL: 64, Src: netstack.MustParseAddr("192.0.2.16"), Dst: dst},
			UDP:     &netstack.UDP{SrcPort: 1, DstPort: 2},
			Payload: []byte("into the void"),
		}
	}
	for _, tc := range []struct {
		name   string
		send   func(rig *lifetimeRig)
		parked func(rig *lifetimeRig) (frames, waits int)
		wire   func(rig *lifetimeRig) *framePort
		drops  func(rig *lifetimeRig) uint64
	}{
		{
			name: "vlan",
			send: func(rig *lifetimeRig) { rig.r.sendToVLAN(datagram(netstack.MustParseAddr("10.3.0.99")), 2) },
			parked: func(rig *lifetimeRig) (int, int) {
				return len(rig.r.vlanPending.Parked(vlanAddr{2, netstack.MustParseAddr("10.3.0.99")})), rig.r.vlanPending.Len()
			},
			wire:  func(rig *lifetimeRig) *framePort { return rig.trunk },
			drops: func(rig *lifetimeRig) uint64 { return rig.g.ARPPendingDrops.Value() },
		},
		{
			name: "outside",
			send: func(rig *lifetimeRig) { rig.g.emitOutside(datagram(netstack.MustParseAddr("198.51.100.99"))) },
			parked: func(rig *lifetimeRig) (int, int) {
				return len(rig.g.outPending.Parked(netstack.MustParseAddr("198.51.100.99"))), rig.g.outPending.Len()
			},
			wire:  func(rig *lifetimeRig) *framePort { return rig.outside },
			drops: func(rig *lifetimeRig) uint64 { return rig.g.ARPPendingDrops.Value() },
		},
		{
			// The cooperating network's router resolves neighbours on the
			// outside segment by the same rules.
			name: "gre peer",
			send: func(rig *lifetimeRig) { rig.grePeer().emit(datagram(netstack.MustParseAddr("198.51.100.99"))) },
			parked: func(rig *lifetimeRig) (int, int) {
				return len(rig.peer.pending.Parked(netstack.MustParseAddr("198.51.100.99"))), rig.peer.pending.Len()
			},
			wire:  func(rig *lifetimeRig) *framePort { return rig.peerWire },
			drops: func(rig *lifetimeRig) uint64 { return rig.peer.ARPPendingDrops },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newLifetimeRig(t)
			for i := 0; i < flood; i++ {
				tc.send(rig)
			}
			if frames, _ := tc.parked(rig); frames != netstack.MaxARPPending {
				t.Fatalf("%d frames parked, want the bound %d", frames, netstack.MaxARPPending)
			}
			if got := tc.drops(rig); got != flood-netstack.MaxARPPending {
				t.Errorf("arp_pending_drops = %d, want %d", got, flood-netstack.MaxARPPending)
			}
			rig.s.RunFor(netsim.ARPMaxTries*netsim.ARPRetryInterval + time.Millisecond)
			if frames, waits := tc.parked(rig); frames != 0 || waits != 0 {
				t.Errorf("after the ARP timeout: %d frames in %d waits", frames, waits)
			}
			sent := tc.wire(rig).take(t)
			if len(sent) != netsim.ARPMaxTries {
				t.Fatalf("%d frames on the wire, want %d ARP requests and none of the flood", len(sent), netsim.ARPMaxTries)
			}
			for _, p := range sent {
				if p.ARP == nil || p.ARP.Op != netstack.ARPRequest {
					t.Errorf("unexpected frame on the wire: %v", p)
				}
			}
			// The neighbour was given up, not blacklisted: the next frame
			// starts a fresh resolution with an empty queue.
			tc.send(rig)
			if frames, waits := tc.parked(rig); frames != 1 || waits != 1 {
				t.Errorf("after the timeout a new frame parks as %d frames in %d waits, want 1 in 1", frames, waits)
			}
		})
	}
}

// l2Frame is a unicast datagram on the trunk addressed to dst at L2, so the
// gateway bridges it (or refuses to) instead of routing it.
func l2Frame(vlan uint16, src, dst netstack.MAC) []byte {
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: dst, Src: src, VLAN: vlan, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: netstack.MustParseAddr("10.0.0.5"), Dst: netstack.MustParseAddr("10.3.0.1")},
		UDP:     &netstack.UDP{SrcPort: 7, DstPort: 7},
		Payload: []byte("bridged"),
	}
	return p.Marshal()
}

// gw.bridged_frames counts exactly the unicast frames the gateway bridges
// between VLANs: each one it delivers past the trunk, none it refuses.
func TestBridgedCounterMatchesDelivered(t *testing.T) {
	rig := newLifetimeRig(t)
	rig.trunk.port.Send(arpReply(2, rig.r.cfg.ContainmentCluster[0].IP, csMAC))
	for _, f := range [][]byte{
		l2Frame(12, inmateMAC(12), csMAC),                    // inmate to service host
		l2Frame(13, inmateMAC(13), csMAC),                    // a second inmate
		l2Frame(2, csMAC, inmateMAC(12)),                     // service host to inmate
		l2Frame(12, inmateMAC(12), inmateMAC(13)),            // inmate to inmate: refused
		l2Frame(12, inmateMAC(12), netstack.MAC{2, 0, 0x99}), // unknown destination: refused
		l2Frame(14, inmateMAC(14), inmateMAC(14)),            // own VLAN: refused
	} {
		rig.trunk.port.Send(f)
	}
	rig.settle()
	var unicast uint64
	for _, p := range rig.trunk.take(t) {
		if !p.Eth.Dst.IsBroadcast() {
			unicast++
		}
	}
	if got := rig.g.Bridged.Value(); got != unicast || got != 3 {
		t.Fatalf("gw.bridged_frames = %d, %d unicast frames delivered past the trunk, want 3 of each", got, unicast)
	}
}

// An inmate chooses its source MACs, so the bridging table they are learned
// into is bounded: a spoofer's flood stops growing it at maxLearnedMACs and
// is counted, a host learned before the flood still bridges (and may move),
// and inmates still never reach each other at L2.
func TestMACTableIsBounded(t *testing.T) {
	const flood = 100000
	rig := newLifetimeRig(t)
	// Learned beforehand: the containment server on the service VLAN and
	// two honest inmates.
	rig.trunk.port.Send(arpReply(2, rig.r.cfg.ContainmentCluster[0].IP, csMAC))
	rig.trunk.port.Send(l2Frame(12, inmateMAC(12), csMAC))
	rig.trunk.port.Send(l2Frame(13, inmateMAC(13), csMAC))
	rig.settle()
	rig.trunk.take(t)

	for i := 0; i < flood; i++ {
		spoofed := netstack.MAC{2, 0xbd, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
		rig.trunk.port.Send(l2Frame(12, spoofed, netstack.MAC{2, 0, 0, 0, 0, 0x99}))
	}
	rig.settle()
	if n := len(rig.r.macTable); n > maxLearnedMACs {
		t.Fatalf("macTable holds %d entries after %d spoofed sources, bound is %d", n, flood, maxLearnedMACs)
	}
	if got := rig.s.Obs().Snapshot().Counter("subfarm.lifetime.mac_table_full"); got == 0 {
		t.Error("subfarm.lifetime.mac_table_full = 0 after a flood past the bound")
	}
	rig.trunk.take(t)

	// The table is full: known hosts still bridge, and relearn when they move.
	rig.trunk.port.Send(l2Frame(12, inmateMAC(12), csMAC))
	rig.trunk.port.Send(l2Frame(14, inmateMAC(13), csMAC))
	rig.settle()
	got := rig.trunk.take(t)
	if len(got) != 2 || got[0].Eth.VLAN != 2 || got[1].Eth.VLAN != 2 || got[0].Eth.Dst != csMAC {
		t.Fatalf("inmate frames to a service host learned before the flood: %v, want both bridged into VLAN 2", got)
	}
	if vlan := rig.r.macTable[inmateMAC(13)]; vlan != 14 {
		t.Errorf("known MAC relearned on VLAN %d after moving to 14", vlan)
	}
	// Inmate to inmate, both known: dropped — they meet only through a verdict.
	rig.trunk.port.Send(l2Frame(12, inmateMAC(12), inmateMAC(13)))
	rig.settle()
	if got := rig.trunk.take(t); len(got) != 0 {
		t.Errorf("inmate-to-inmate unicast was bridged: %v", got)
	}
}

// The VLAN-side ARP cache is keyed by sender addresses an inmate chooses, so
// it has macTable's bound: an ARP storm of spoofed senders on one inmate
// VLAN stops growing it at maxLearnedMACs and is counted, and an entry held
// before the storm still follows its host.
func TestVLANARPIsBounded(t *testing.T) {
	const flood = 10000
	rig := newLifetimeRig(t)
	inmate := netstack.MustParseAddr("10.0.0.5")
	rig.trunk.port.Send(arpReply(12, inmate, inmateMAC(12)))
	rig.settle()
	held := len(rig.r.vlanARP)

	for i := 0; i < flood; i++ {
		spoofed := netstack.Addr(0xc6120000 | uint32(i)) // 198.18.0.0/15
		rig.trunk.port.Send(arpReply(12, spoofed, netstack.MAC{2, 0xbd, 0, 0, byte(i >> 8), byte(i)}))
	}
	rig.settle()
	if n := len(rig.r.vlanARP); n > maxLearnedMACs {
		t.Fatalf("vlanARP holds %d entries after %d spoofed senders, bound is %d", n, flood, maxLearnedMACs)
	}
	refused := rig.s.Obs().Snapshot().Counter("subfarm.lifetime.vlan_arp_full")
	if want := uint64(held + flood - maxLearnedMACs); refused != want {
		t.Errorf("subfarm.lifetime.vlan_arp_full = %d after the storm, want %d", refused, want)
	}

	// Full: the held entry moves with its host, a new sender is turned away.
	moved := netstack.MAC{2, 0, 0, 0, 2, 12}
	late := netstack.MustParseAddr("10.0.0.6")
	rig.trunk.port.Send(arpReply(12, inmate, moved))
	rig.trunk.port.Send(arpReply(12, late, inmateMAC(13)))
	rig.settle()
	if mac := rig.r.vlanARP[vlanAddr{12, inmate}]; mac != moved {
		t.Errorf("held entry reads %v after its host moved to %v", mac, moved)
	}
	if _, ok := rig.r.vlanARP[vlanAddr{12, late}]; ok {
		t.Error("a new sender was learned into the full cache")
	}
}

// GRE decapsulation parses the inner packet while the outer one is still in
// use: the tunnel is looked up by the outer destination after the inner
// parse. The inner parse must not land in the buffer the outer lives in, and
// the inner packet must come out the other side as it went in.
func TestGREInnerParsedWhileOuterLive(t *testing.T) {
	tunnel := GRETunnel{
		LocalAddr: netstack.MustParseAddr("192.0.2.2"),
		PeerAddr:  netstack.MustParseAddr("198.51.100.254"),
		ExtraPool: netstack.MustParsePrefix("203.0.114.0/24"),
		PoolStart: 16,
	}
	rig := newLifetimeRig(t, func(cfg *RouterConfig) {
		// A primary pool of exactly one address (.14; .15 is broadcast), so
		// the second inmate draws from the tunnel's.
		cfg.GlobalPool, cfg.GlobalPoolStart = netstack.MustParsePrefix("192.0.2.0/28"), 14
		cfg.GRETunnels = []GRETunnel{tunnel}
		cfg.InboundMode = nat.ForwardInbound
	})
	inmate := netstack.MustParseAddr("10.0.0.9")
	rig.r.learnInmate(14, netstack.MustParseAddr("10.0.0.8"), inmateMAC(14))
	rig.r.learnInmate(15, inmate, inmateMAC(15))
	global := rig.r.nat.ByVLAN(15).Global
	if !tunnel.ExtraPool.Contains(global) {
		t.Fatalf("inmate bound to %v, outside the tunnelled pool", global)
	}
	rig.r.vlanARP[vlanAddr{2, rig.r.cfg.ContainmentCluster[0].IP}] = csMAC

	// A client behind the peer opens a connection to the inmate's tunnelled
	// address; the peer wraps it in GRE toward the gateway.
	client := netstack.MustParseAddr("198.51.100.77")
	payload := bytes.Repeat([]byte("inner "), 40)
	inner := &netstack.Packet{
		IP:      &netstack.IPv4{TTL: 61, ID: 4242, Src: client, Dst: global},
		TCP:     &netstack.TCP{SrcPort: 5151, DstPort: 445, Seq: 9000, Flags: netstack.FlagSYN, Window: 8192},
		Payload: payload,
	}
	outer := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Protocol: netstack.ProtoGRE, Src: tunnel.PeerAddr, Dst: tunnel.LocalAddr},
		Payload: netstack.GREEncap(netstack.MarshalIPPacket(inner)),
	}
	rig.outside.port.Send(outer.Marshal())
	rig.settle()

	if rig.g.GRERx.Value() != 1 || !rig.r.greUp[tunnel.LocalAddr] {
		t.Fatalf("tunnel endpoint not recognised after the inner parse: gre_rx=%d up=%v",
			rig.g.GRERx.Value(), rig.r.greUp)
	}
	got := rig.trunk.take(t)
	if len(got) != 1 {
		t.Fatalf("%d frames toward the containment server, want the decapsulated SYN", len(got))
	}
	p := got[0]
	if p.TCP == nil || p.IP.Src != client || p.IP.ID != 4242 || p.IP.TTL != 61 ||
		p.TCP.SrcPort != 5151 || p.TCP.Seq != 9000 || p.TCP.Window != 8192 || !bytes.Equal(p.Payload, payload) {
		t.Errorf("inner packet altered on its way through the tunnel endpoint: %v", p)
	}
	if p.IP.Dst != rig.r.cfg.ContainmentCluster[0].IP || p.Eth.VLAN != 2 || p.Eth.Dst != csMAC {
		t.Errorf("inner packet not redirected to the containment server: %v", p)
	}
}

// --- the spliced responder -> initiator relay ---

// spliceRig is a lifetimeRig with one established, spliced outbound flow:
// inmate 10.0.0.5:4000 (VLAN 12) <-> 198.51.100.1:80, whose responder-side
// sequence numbers are seqDelta away from what the initiator was told.
type spliceRig struct {
	*lifetimeRig
	f      *Flow
	global netstack.Addr
}

func newSpliceRig(t *testing.T) *spliceRig {
	t.Helper()
	rig := newLifetimeRig(t)
	initIP, respIP := netstack.MustParseAddr("10.0.0.5"), netstack.MustParseAddr("198.51.100.1")
	rig.r.learnInmate(12, initIP, inmateMAC(12))
	f := rig.r.newFlow(netstack.FlowKey{
		VLAN: 12, SrcIP: initIP, SrcPort: 4000, DstIP: respIP, DstPort: 80, Proto: netstack.ProtoTCP,
	}, 12, false)
	f.state = fsSplice
	f.haveCSISN, f.csISN, f.targetISN = true, 0xfffffff0, 500
	f.seqDelta = f.csISN - f.targetISN // wraps in the initiator's view
	f.respNextSeq = f.targetISN + 1
	f.actualIP, f.actualPort = respIP, 80
	return &spliceRig{lifetimeRig: rig, f: f, global: f.initGlobal}
}

// refRelay is the relay as it was before it patched in place — a new TCP
// header, a new packet around it, a full serialisation (Flow.segmentToInitiator)
// — kept as the reference the in-place frame must equal byte for byte.
func (rig *spliceRig) refRelay(t *testing.T, frame []byte) []byte {
	t.Helper()
	in, err := netstack.ParseFrame(append([]byte(nil), frame...))
	if err != nil {
		t.Fatal(err)
	}
	f := rig.f
	tcp, payload := *in.TCP, in.Payload
	tcp.SrcPort, tcp.DstPort = f.respPort, f.initPort
	tcp.Seq += f.seqDelta
	if tcp.Flags&netstack.FlagRST != 0 {
		tcp = netstack.TCP{SrcPort: f.respPort, DstPort: f.initPort, Seq: tcp.Seq, Ack: tcp.Ack, Flags: tcp.Flags}
		payload = nil
	}
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: inmateMAC(12), Src: GatewayMAC, VLAN: 12, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: netstack.DefaultTTL, Src: f.respIP, Dst: f.initIP},
		TCP:     &tcp,
		Payload: payload,
	}
	return p.Marshal()
}

// respFrame is a responder segment as it arrives on the outside interface,
// carrying IP metadata the initiator must not see, in a buffer with the
// tail room a host leaves.
func (rig *spliceRig) respFrame(flags uint8, seq uint32, payload []byte) []byte {
	p := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
		IP:  &netstack.IPv4{TOS: 0x10, ID: 777, Flags: 2, TTL: 57, Src: rig.f.respIP, Dst: rig.global},
		TCP: &netstack.TCP{
			SrcPort: 80, DstPort: 4000, Seq: seq, Ack: 0xfffffff0 + 1,
			Flags: flags, Window: 4321, Urgent: 3,
		},
		Payload: payload,
	}
	wire := p.Marshal()
	return append(make([]byte, 0, len(wire)+netstack.VLANTagLen), wire...)
}

// withTCPOptions grows a frame's TCP header by a 4-byte MSS option.
func withTCPOptions(frame []byte) []byte {
	const l3, l4 = netstack.EthHeaderLen, netstack.EthHeaderLen + netstack.IPv4HeaderLen
	out := append([]byte(nil), frame[:l4+netstack.TCPHeaderLen]...)
	out = append(out, 2, 4, 0x05, 0xb4) // MSS 1460
	out = append(out, frame[l4+netstack.TCPHeaderLen:]...)
	out[l4+12] = 6 << 4
	return resum(out, l3)
}

// withIPOptions grows a frame's IP header by four no-op option bytes.
func withIPOptions(frame []byte) []byte {
	const l3 = netstack.EthHeaderLen
	out := append([]byte(nil), frame[:l3+netstack.IPv4HeaderLen]...)
	out = append(out, 1, 1, 1, 0)
	out = append(out, frame[l3+netstack.IPv4HeaderLen:]...)
	out[l3] = 0x46
	return resum(out, l3)
}

// resum rewrites the IP total length and both checksums of a hand-edited
// TCP frame.
func resum(frame []byte, l3 int) []byte {
	ip := frame[l3:]
	ihl := int(ip[0]&0x0f) * 4
	binary.BigEndian.PutUint16(ip[2:], uint16(len(ip)))
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:], netstack.Checksum(ip[:ihl], 0))
	seg := ip[ihl:]
	seg[16], seg[17] = 0, 0
	pseudo := uint32(netstack.ProtoTCP) + uint32(len(seg))
	for _, w := range [][]byte{ip[12:14], ip[14:16], ip[16:18], ip[18:20]} {
		pseudo += uint32(binary.BigEndian.Uint16(w))
	}
	binary.BigEndian.PutUint16(seg[16:], netstack.Checksum(seg, pseudo))
	return frame
}

// TestSplicedAckRelayedInPlace: what the initiator receives from a spliced
// responder is, byte for byte, what the rebuilding relay produced — for
// plain segments, which now keep their buffer, and for frames carrying
// anything a rebuilt packet would not (options, padding, a reset's window
// and data), which fall back to a rebuild. The plain relay allocates
// nothing.
func TestSplicedAckRelayedInPlace(t *testing.T) {
	rig := newSpliceRig(t)
	kib := bytes.Repeat([]byte{0xa7}, 1024)
	seq := rig.f.targetISN + 1
	for _, tc := range []struct {
		name    string
		frame   []byte
		inPlace bool
	}{
		{"pure ack", rig.respFrame(netstack.FlagACK, seq, nil), true},
		{"data", rig.respFrame(netstack.FlagACK|netstack.FlagPSH, seq, kib), true},
		{"duplicate data", rig.respFrame(netstack.FlagACK|netstack.FlagPSH, seq, kib), true},
		{"odd-length data", rig.respFrame(netstack.FlagACK|netstack.FlagPSH, seq+1024, []byte("xyz")), true},
		{"tcp options", withTCPOptions(rig.respFrame(netstack.FlagACK, seq+1027, nil)), false},
		{"tcp options and data", withTCPOptions(rig.respFrame(netstack.FlagACK|netstack.FlagPSH, seq+1027, []byte("behind options"))), false},
		{"ip options", withIPOptions(rig.respFrame(netstack.FlagACK|netstack.FlagPSH, seq+1041, []byte("behind ip options"))), false},
		{"link padding", append(rig.respFrame(netstack.FlagACK, seq+1058, nil), 0, 0, 0, 0, 0, 0), false},
		{"fin", rig.respFrame(netstack.FlagFIN|netstack.FlagACK, seq+1058, nil), true},
		{"fin with data", rig.respFrame(netstack.FlagFIN|netstack.FlagACK|netstack.FlagPSH, seq+1058, []byte("last words")), true},
	} {
		want := rig.refRelay(t, tc.frame)
		rig.outside.port.SendOwned(tc.frame)
		rig.settle()
		if len(rig.trunk.frames) != 1 {
			t.Fatalf("%s: %d frames relayed to the initiator, want 1", tc.name, len(rig.trunk.frames))
		}
		got := rig.trunk.frames[0]
		rig.trunk.frames = nil
		if !bytes.Equal(got, want) {
			t.Errorf("%s: relayed frame differs from the rebuilt one:\ngot  % x\nwant % x", tc.name, got, want)
		}
		if inPlace := arrayEnd(got) == arrayEnd(tc.frame); inPlace != tc.inPlace {
			t.Errorf("%s: relayed in the responder's buffer = %v, want %v", tc.name, inPlace, tc.inPlace)
		}
		if _, err := netstack.ParseFrame(append([]byte(nil), got...)); err != nil {
			t.Errorf("%s: relayed frame does not verify: %v", tc.name, err)
		}
	}
	// In-sequence payload only: not the duplicate, not the data behind the FIN.
	if want := uint64(1024 + 3 + 14 + 17); rig.f.rec.BytesResp != want || !rig.f.finResp {
		t.Errorf("flow record counts %d responder bytes (want %d), FIN seen %v", rig.f.rec.BytesResp, want, rig.f.finResp)
	}

	// Resets end the flow, so each gets a fresh one: bare, and carrying data
	// the initiator must not get.
	for _, tc := range []struct {
		name    string
		payload []byte
		inPlace bool
	}{{"rst", nil, true}, {"rst with data", []byte("dying words"), false}} {
		rig := newSpliceRig(t)
		frame := rig.respFrame(netstack.FlagRST|netstack.FlagACK, seq, tc.payload)
		want := rig.refRelay(t, frame)
		rig.outside.port.SendOwned(frame)
		rig.settle()
		if len(rig.trunk.frames) != 1 || !bytes.Equal(rig.trunk.frames[0], want) {
			t.Errorf("%s: relayed %x, want %x", tc.name, rig.trunk.frames, want)
		} else if inPlace := arrayEnd(rig.trunk.frames[0]) == arrayEnd(frame); inPlace != tc.inPlace {
			t.Errorf("%s: relayed in the responder's buffer = %v, want %v", tc.name, inPlace, tc.inPlace)
		}
		if rig.f.state != fsClosed || rig.f.rec.Annotation != "responder reset" {
			t.Errorf("%s: flow state %v (%q) after the reset", tc.name, rig.f.state, rig.f.rec.Annotation)
		}
	}

	// Cost: the relay itself — outside receive to trunk transmit — allocates
	// nothing for an ordinary ACK or data segment.
	const runs = 50
	rig = newSpliceRig(t)
	rig.trunk.frames = make([][]byte, 0, 2*(runs+1)) // room for every delivery: keeping one allocates nothing
	frames := make([][]byte, 0, 2*(runs+1))
	for i := 0; i <= runs; i++ {
		frames = append(frames,
			rig.respFrame(netstack.FlagACK, seq+uint32(i)*1024, nil),
			rig.respFrame(netstack.FlagACK|netstack.FlagPSH, seq+uint32(i)*1024, kib))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for k := 0; k < 2; k++ {
			rig.g.recvOutside(frames[next])
			next++
			rig.s.Step() // the trunk delivery: its record goes back on the free list
		}
	})
	if allocs != 0 {
		t.Errorf("relaying an ACK and a 1 KiB segment cost %v allocations, want 0", allocs)
	}
	if delivered := len(rig.trunk.frames); delivered != 2*(runs+1) {
		t.Errorf("%d frames reached the initiator's side, want %d", delivered, 2*(runs+1))
	}
}

// arrayEnd identifies the backing array a frame lives in, whatever header
// room has been consumed or given back in front of and behind it.
func arrayEnd(b []byte) *byte {
	b = b[:cap(b)]
	return &b[len(b)-1]
}
