package gateway_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gq/internal/containment"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/shim"
)

// expectPanic reports whether fn panicked.
func expectPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return
}

// Regression for the VLAN-overlap check in AddRouterIn: the old
// endpoint-containment test missed a new range that strictly contains an
// existing one, silently double-homing every inmate VLAN in the gap.
func TestAddRouterRejectsOverlappingVLANRanges(t *testing.T) {
	tb := newTestbed(t, 41) // existing router owns VLANs 10-30
	overlapping := []struct{ lo, hi uint16 }{
		{5, 40},  // strictly contains 10-30 (the escaped case)
		{12, 20}, // strictly contained
		{10, 30}, // identical
		{25, 35}, // partial, high side
		{5, 10},  // partial, touching low endpoint
		{30, 40}, // partial, touching high endpoint
	}
	for _, c := range overlapping {
		if !expectPanic(func() {
			tb.gw.AddRouterIn(tb.gw.Sim, gateway.RouterConfig{Name: "clash", VLANLo: c.lo, VLANHi: c.hi})
		}) {
			t.Errorf("AddRouterIn accepted VLAN range %d-%d overlapping 10-30", c.lo, c.hi)
		}
	}
	// A genuinely disjoint range must still be accepted.
	if expectPanic(func() {
		tb.gw.AddRouterIn(tb.gw.Sim, gateway.RouterConfig{
			Name:   "disjoint",
			VLANLo: 31, VLANHi: 39,
			ServiceVLANs:       []uint16{serviceVLAN},
			InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
			RouterIP:           netstack.MustParseAddr("10.0.0.1"),
			ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
			ServiceRouterIP:    netstack.MustParseAddr("10.3.0.254"),
			GlobalPool:         netstack.MustParsePrefix("192.0.3.0/24"),
			GlobalPoolStart:    16,
			ContainmentCluster: []gateway.ContainmentEndpoint{{VLAN: serviceVLAN, IP: csIP, Port: csPort}},
			NonceIP:            nonceIP,
		})
	}) {
		t.Error("AddRouterIn rejected disjoint VLAN range 31-39")
	}
}

// An inmate broadcast (here: ARP for a non-gateway on-link address) must be
// bridged into the service VLANs byte-identically except for the VLAN tag.
// This locks in the emitTrunk retag fast path against the slow-path
// (re-marshal) reference.
func TestBroadcastFloodBridgingBytes(t *testing.T) {
	tb := newTestbed(t, 42)
	target := netstack.MustParseAddr("10.0.0.99")

	var tapped [][]byte
	tb.inSw.AddTap(func(f []byte) {
		tapped = append(tapped, append([]byte(nil), f...))
	})

	// Dialling an unclaimed on-link address makes the inmate ARP for it;
	// the router does not own it and bridges the broadcast.
	tb.inmate.Dial(target, 80)
	tb.sim.RunFor(2 * time.Second)

	var orig, flooded []byte
	for _, f := range tapped {
		p, err := netstack.ParseFrame(append([]byte(nil), f...))
		if err != nil || p.ARP == nil || p.ARP.Op != netstack.ARPRequest ||
			p.ARP.TargetIP != target {
			continue
		}
		switch p.Eth.VLAN {
		case inmateVLAN:
			if orig == nil {
				orig = f
			}
		case serviceVLAN:
			if flooded == nil {
				flooded = f
			}
		}
	}
	if orig == nil {
		t.Fatal("inmate ARP broadcast never traversed the switch")
	}
	if flooded == nil {
		t.Fatal("broadcast was not bridged into the service VLAN")
	}

	// Reference frame: the original, re-parsed and retagged through the
	// packet layer. Must match the bridged frame byte for byte.
	ref, err := netstack.ParseFrame(append([]byte(nil), orig...))
	if err != nil {
		t.Fatal(err)
	}
	ref.Eth.VLAN = serviceVLAN
	if want := ref.Marshal(); !bytes.Equal(flooded, want) {
		t.Fatalf("bridged frame differs from retagged original:\n got %x\nwant %x", flooded, want)
	}
}

// A pure SYN with a fresh ISN on a known tuple supersedes the stale flow
// (reverted inmates reuse ephemeral ports). Both incarnations' SYNs must
// reach the containment server byte-identical to a slow-path reference
// frame, locking the forwardInitToCS/sendToCS rewrite in place.
func TestFlowSupersedeFreshSYN(t *testing.T) {
	tb := newTestbed(t, 43)

	// Raw frame injector on its own inmate VLAN: lets us control the ISN
	// and replay the exact same five-tuple, which the host stack won't.
	raw := netsim.NewPort(tb.sim, "raw", nil)
	netsim.Connect(tb.inSw.AddAccessPort("raw", 17), raw, 0)
	rawMAC := netstack.MAC{2, 0, 0, 0, 9, 9}
	rawIP := netstack.MustParseAddr("10.0.0.55")

	var toCS [][]byte
	tb.inSw.AddTap(func(f []byte) {
		p, err := netstack.ParseFrame(append([]byte(nil), f...))
		if err == nil && p.TCP != nil && p.IP.Dst == csIP &&
			p.TCP.DstPort == csPort && p.TCP.Flags == netstack.FlagSYN {
			toCS = append(toCS, append([]byte(nil), f...))
		}
	})

	syn := func(isn uint32) []byte {
		p := &netstack.Packet{
			Eth: netstack.Ethernet{Dst: gateway.GatewayMAC, Src: rawMAC,
				EtherType: netstack.EtherTypeIPv4},
			IP: &netstack.IPv4{TTL: netstack.DefaultTTL,
				Protocol: netstack.ProtoTCP, Src: rawIP, Dst: extWebIP},
			TCP: &netstack.TCP{SrcPort: 2000, DstPort: 80, Seq: isn,
				Flags: netstack.FlagSYN, Window: 65535},
		}
		return p.Marshal()
	}

	before := tb.router.FlowsCreated.Value()
	raw.Send(syn(1000))
	tb.sim.RunFor(time.Second)
	active := tb.router.ActiveFlows()
	raw.Send(syn(5000)) // same tuple, fresh ISN: new incarnation
	tb.sim.RunFor(time.Second)

	if got := tb.router.FlowsCreated.Value() - before; got != 2 {
		t.Fatalf("FlowsCreated = %d, want 2 (supersede must adjudicate anew)", got)
	}
	var mine []*gateway.FlowRecord
	for _, rec := range tb.router.Records() {
		if rec.OrigIP == rawIP {
			mine = append(mine, rec)
		}
	}
	if len(mine) != 2 {
		t.Fatalf("flow records for %v = %d, want 2", rawIP, len(mine))
	}
	if mine[0].Annotation != "superseded by new incarnation" {
		t.Fatalf("stale flow not superseded: annotation=%q", mine[0].Annotation)
	}
	if got := tb.router.ActiveFlows(); got != active {
		t.Fatalf("%d active flows after the supersede, want %d: the new incarnation replaces the stale one", got, active)
	}

	// Byte-identity: each forwarded SYN must equal a freshly marshalled
	// reference packet (slow path) with only dst IP/port rewritten to the
	// containment server.
	if len(toCS) != 2 {
		t.Fatalf("SYNs forwarded to containment server = %d, want 2", len(toCS))
	}
	for i, isn := range []uint32{1000, 5000} {
		got, err := netstack.ParseFrame(append([]byte(nil), toCS[i]...))
		if err != nil {
			t.Fatalf("forwarded SYN %d unparseable: %v", i, err)
		}
		ref := &netstack.Packet{
			Eth: netstack.Ethernet{Dst: got.Eth.Dst, Src: gateway.GatewayMAC,
				VLAN: serviceVLAN, EtherType: netstack.EtherTypeIPv4},
			IP: &netstack.IPv4{TTL: netstack.DefaultTTL,
				Protocol: netstack.ProtoTCP, Src: rawIP, Dst: csIP},
			TCP: &netstack.TCP{SrcPort: 2000, DstPort: csPort, Seq: isn,
				Flags: netstack.FlagSYN, Window: 65535},
		}
		if want := ref.Marshal(); !bytes.Equal(toCS[i], want) {
			t.Fatalf("forwarded SYN %d differs from reference:\n got %x\nwant %x",
				i, toCS[i], want)
		}
	}
}

// arrayEnd identifies the backing array a frame lives in, whatever header
// room has been consumed or given back in front of and behind it.
func arrayEnd(b []byte) *byte {
	b = b[:cap(b)]
	return &b[len(b)-1]
}

// Once a flow is spliced, an initiator's segment stays in the buffer its
// sender serialised it into all the way across the farm: tagged in place at
// the access port, NAT-rewritten and untagged in place by the gateway (no
// re-serialisation, no re-summed payload), tagged and untagged again by the
// Internet switch. The responder's segments make the same trip the other
// way round, through the gateway's in-place relay toward the initiator.
func TestSplicedSegmentKeepsOneBufferAcrossTheFarm(t *testing.T) {
	tb := newTestbed(t, 44)
	tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward}
	}})
	up := strings.Repeat("SPLICED-UP ", 100)
	down := strings.Repeat("SPLICED-DOWN ", 100)

	// Where each marked segment was seen, by backing array.
	type sighting struct{ inmateSw, upstream, internetSw *byte }
	seen := map[string]*sighting{up: {}, down: {}}
	marked := func(f []byte) *sighting {
		p, err := netstack.ParseFrame(f)
		if err != nil || p.TCP == nil {
			return nil
		}
		return seen[string(p.Payload)]
	}
	tb.inSw.AddTap(func(f []byte) {
		if s := marked(f); s != nil {
			s.inmateSw = arrayEnd(f)
		}
	})
	tb.gw.AddUpstreamTap(func(f []byte) {
		if s := marked(f); s != nil {
			s.upstream = arrayEnd(f)
		}
	})
	tb.extSw.AddTap(func(f []byte) {
		if s := marked(f); s != nil {
			s.internetSw = arrayEnd(f)
		}
	})

	var serverGot, inmateGot string
	ext := tb.addExternal(t, "cc", netstack.MustParseAddr("198.51.100.7"))
	ext.Listen(80, func(c *host.Conn) {
		c.OnData = func(d []byte) {
			if serverGot += string(d); strings.HasSuffix(serverGot, up) {
				c.Write([]byte(down))
			}
		}
	})
	c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.7"), 80)
	c.OnConnect = func() { c.Write([]byte("HELLO")) }
	c.OnData = func(d []byte) { inmateGot += string(d) }
	tb.sim.RunFor(5 * time.Second) // verdict applied, flow spliced
	c.Write([]byte(up))
	tb.sim.RunFor(5 * time.Second)

	if serverGot != "HELLO"+up || inmateGot != down {
		t.Fatalf("transfer incomplete: server got %d bytes, inmate got %d", len(serverGot), len(inmateGot))
	}
	for name, s := range map[string]*sighting{"outbound": seen[up], "inbound": seen[down]} {
		if s.inmateSw == nil || s.upstream == nil || s.internetSw == nil {
			t.Fatalf("%s segment not seen at every tap: %+v", name, s)
		}
	}
	if s := seen[up]; s.inmateSw != s.upstream || s.upstream != s.internetSw {
		t.Errorf("outbound segment changed buffers on its way (inmate switch %p, gateway upstream %p, internet switch %p)",
			s.inmateSw, s.upstream, s.internetSw)
	}
	if s := seen[down]; s.internetSw != s.upstream || s.upstream != s.inmateSw {
		t.Errorf("inbound segment changed buffers on its way (internet switch %p, gateway upstream %p, inmate switch %p)",
			s.internetSw, s.upstream, s.inmateSw)
	}
}

// TestSteadyStateAllocsPerSegment bounds what the whole farm pays for one
// segment of an established spliced flow and its ACK: inmate -> inmate
// switch -> gateway -> Internet switch -> sink, and back. Four hops each
// way, two gateway crossings, two host receive paths. A segment of up to
// 256 bytes allocates nothing: its buffer is the one the sink released
// after the last segment, the ACK's the one the inmate released after the
// last ACK. A 1 KiB segment is outside the frame classes
// (internal/netsim/frames.go), so its one allocation is its own buffer.
func TestSteadyStateAllocsPerSegment(t *testing.T) {
	for _, tc := range []struct{ size, ceiling int }{{256, 0}, {1024, 1}} {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			tb := newTestbed(t, 45)
			tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
				return containment.Decision{Verdict: shim.Forward}
			}})
			sunk := 0
			sink := tb.addExternal(t, "sink", netstack.MustParseAddr("198.51.100.8"))
			sink.Listen(80, func(c *host.Conn) {
				c.OnData = func(d []byte) { sunk += len(d) }
			})
			c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.8"), 80)
			c.OnConnect = func() { c.Write([]byte("HELLO")) }
			tb.sim.RunFor(5 * time.Second) // verdict applied, flow spliced
			seg := bytes.Repeat([]byte{0x5a}, tc.size)
			for i := 0; i < 64; i++ { // send buffer, event queue and free lists reach their size
				c.Write(seg)
				tb.sim.RunFor(5 * time.Millisecond)
			}
			sunk = 0
			// Timers and link records are re-armed in place, and RunFor
			// probes its goroutine id without allocating.
			allocs := testing.AllocsPerRun(100, func() {
				c.Write(seg)
				tb.sim.RunFor(5 * time.Millisecond)
			})
			if allocs > float64(tc.ceiling) {
				t.Errorf("one spliced %d-byte segment and its ACK: %v allocs, ceiling %d", tc.size, allocs, tc.ceiling)
			}
			if sunk != 101*len(seg) || c.State() != host.StateEstablished {
				t.Fatalf("sink got %d bytes of %d, connection %v", sunk, 101*len(seg), c.State())
			}
		})
	}
}
