package host

import (
	"bytes"
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// Frame-buffer recycling (netsim.Frames): a host takes every buffer it sends
// from its domain's frame list and releases every frame it receives into it
// once receiveFrame returns. These tests pin what that may never change: a
// receive callback's bytes are dead once it returns, a recycled buffer leaks
// nothing of its last frame onto the wire, and each domain's list is only
// ever touched by its own goroutine and stays bounded.

// arrayEnd identifies the backing array a frame or payload slice lives in.
func arrayEnd(b []byte) *byte {
	b = b[:cap(b)]
	return &b[len(b)-1]
}

// poisoned reports whether b is non-empty and holds nothing but
// netsim.PoisonByte.
func poisoned(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{netsim.PoisonByte}) == len(b)
}

// TestKeptReceiveBytesArePoisoned: an rx hook, a connection's OnData and a
// UDP receiver each keep the slice they were handed past their call. Once
// receiveFrame has returned the bytes are the host's again, and under go test
// they read 0xDB when the next frame arrives — not the bytes they carried,
// nor another frame's.
func TestKeptReceiveBytesArePoisoned(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	var hooked, data, dgram []byte
	b.AddRxHook(func(p *netstack.Packet) {
		if p.UDP != nil && p.UDP.DstPort == 2001 {
			hooked = p.Payload
		}
	})
	if err := b.Listen(80, func(c *Conn) { c.OnData = func(d []byte) { data = d } }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ListenUDP(2000, func(_ netstack.Addr, _ uint16, d []byte) { dgram = d }); err != nil {
		t.Fatal(err)
	}
	var checked bool
	if _, err := b.ListenUDP(2002, func(netstack.Addr, uint16, []byte) {
		checked = true
		for name, kept := range map[string][]byte{"rx hook": hooked, "OnData": data, "UDP receiver": dgram} {
			if !poisoned(kept) {
				t.Errorf("%s kept %d bytes starting %q, want all 0x%X", name, len(kept), kept[:min(len(kept), 16)], netsim.PoisonByte)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := a.Dial(b.Addr(), 80)
	s.RunFor(time.Second)
	sock, err := a.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three frames of one class, in flight together, each kept by one
	// receive path.
	c.Write(bytes.Repeat([]byte("segment "), 30))
	sock.SendTo(b.Addr(), 2000, bytes.Repeat([]byte("datagram "), 25))
	sock.SendTo(b.Addr(), 2001, bytes.Repeat([]byte("hooked "), 30))
	s.RunFor(10 * time.Millisecond)
	if hooked == nil || data == nil || dgram == nil {
		t.Fatalf("kept: rx hook %v, OnData %v, UDP receiver %v", hooked != nil, data != nil, dgram != nil)
	}
	sock.SendTo(b.Addr(), 2002, []byte("next"))
	s.RunFor(10 * time.Millisecond)
	if !checked {
		t.Fatal("the next frame did not arrive")
	}
}

// TestRecycledBuffersCarryNoStaleBytes (Etherleak, CVE-2003-0001): a
// recycled buffer still holds its last frame's bytes, beyond the new frame's
// length too. Every frame shape a host originates, built into a buffer filled
// with a marker, must leave byte-identical to the same frame built into a
// fresh buffer — as sent, and after an access port has tagged it in place in
// its tail room.
func TestRecycledBuffersCarryNoStaleBytes(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		fresh := originatedShapes(t, tagged, false)
		recycled := originatedShapes(t, tagged, true)
		for i, f := range fresh {
			if r := recycled[i]; !bytes.Equal(r.frame, f.frame) {
				t.Errorf("tagged %v, %s: recycled buffer sent\n%x\nfresh one\n%x", tagged, f.name, r.frame, f.frame)
			}
		}
	}
}

type shape struct {
	name  string
	frame []byte
}

// originatedShapes has a host send each frame shape it originates to a
// capture port, directly or through an access port and a trunk, and returns
// the frames as captured. With marked, every frame is built into a recycled
// buffer whose bytes are all 0xEE.
func originatedShapes(t *testing.T, tagged, marked bool) []shape {
	t.Helper()
	s := sim.New(1)
	h := New(s, "h", netstack.MAC{2, 0, 0, 0, 0, 1})
	peerMAC, peerIP := netstack.MAC{2, 0, 0, 0, 0, 9}, netstack.MustParseAddr("10.0.0.9")
	var got []byte
	var gotEnd *byte
	capture := netsim.NewPort(s, "capture", func(f []byte) { got, gotEnd = append([]byte(nil), f...), arrayEnd(f) })
	if tagged {
		sw := netsim.NewSwitch(s, "sw")
		netsim.Connect(sw.AddAccessPort("h", 10), h.NIC(), 0)
		netsim.Connect(sw.AddTrunkPort("t"), capture, 0)
		// Teach the bridge that the peer is behind the trunk, so frames
		// are forwarded in place rather than flooded as copies.
		teach := netstack.Packet{Eth: netstack.Ethernet{Dst: h.MAC(), Src: peerMAC, VLAN: 10, EtherType: netstack.EtherTypeIPv4}}
		capture.Send(teach.Marshal())
		s.Run()
	} else {
		netsim.Connect(h.NIC(), capture, 0)
	}
	h.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	h.arpCache[peerIP] = peerMAC
	c := h.newConn(40000, peerIP, 80)
	sock, err := h.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := bytes.Repeat([]byte{0x42}, 100)
	probe := &netstack.Packet{
		IP:  &netstack.IPv4{Src: peerIP, Dst: h.Addr()},
		TCP: &netstack.TCP{SrcPort: 80, DstPort: 41000, Seq: 7000, Flags: netstack.FlagSYN},
	}

	var out []shape
	for _, sh := range []struct {
		name string
		send func()
	}{
		{"SYN", func() { c.sendSegment(netstack.FlagSYN, 1000, 0, nil) }},
		{"SYN-ACK", func() { c.sendSegment(netstack.FlagSYN|netstack.FlagACK, 1000, 5001, nil) }},
		{"pure ACK", func() { c.sendSegment(netstack.FlagACK, 1001, 5001, nil) }},
		{"data", func() { c.sendSegment(netstack.FlagACK|netstack.FlagPSH, 1001, 5001, small) }},
		{"FIN", func() { c.sendSegment(netstack.FlagFIN|netstack.FlagACK, 1101, 5001, nil) }},
		{"RST", func() { h.sendRST(probe) }},
		{"UDP", func() { sock.SendTo(peerIP, 53, small[:20]) }},
	} {
		h.frames = new(netsim.Frames)
		marks := map[*byte]bool{}
		if marked {
			// One buffer of each class: a take of one byte makes a control
			// buffer, one byte more than that holds a larger one.
			small := h.frames.Take(1)
			for _, buf := range [][]byte{small, h.frames.Take(cap(small) + 1)} {
				h.frames.Put(buf)
				markAll(buf)
				marks[arrayEnd(buf)] = true
			}
		}
		got, gotEnd = nil, nil
		sh.send()
		s.Run()
		if got == nil {
			t.Fatalf("tagged %v, marked %v: %s never reached the capture port", tagged, marked, sh.name)
		}
		if marked && !marks[gotEnd] {
			t.Fatalf("tagged %v: %s was not built into a recycled buffer", tagged, sh.name)
		}
		out = append(out, shape{sh.name, got})
	}
	return out
}

// markAll fills b up to its capacity with 0xEE, the marker of a recycled
// buffer's stale bytes.
func markAll(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xEE
	}
}

// idleFrames takes l's idle buffers of each class, one by one until a take
// has to make one: under go test an idle buffer reads netsim.PoisonByte, a
// buffer made on a miss reads zero.
func idleFrames(l *netsim.Frames) [][][]byte {
	drain := func(size int) (idle [][]byte, made []byte) {
		for {
			buf := l.Take(size)
			if buf[:cap(buf)][0] != netsim.PoisonByte {
				return idle, buf
			}
			idle = append(idle, buf)
		}
	}
	control, made := drain(1)
	segment, _ := drain(cap(made) + 1)
	return [][][]byte{control, segment}
}

// crossDomainPair puts host a on root and host b on a second domain of a
// two-worker coordinator, NIC to NIC over a trunk-latency link, each knowing
// the other's MAC.
func crossDomainPair(t *testing.T) (*sim.Coordinator, *sim.Simulator, *Host, *Host) {
	t.Helper()
	root := sim.New(1)
	c := sim.NewCoordinator(root, netsim.TrunkLatency, 2)
	d := c.NewDomain()
	a := New(root, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := New(d, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(a.NIC(), b.NIC(), netsim.TrunkLatency)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	a.arpCache[b.Addr()], b.arpCache[a.Addr()] = b.MAC(), a.MAC()
	return c, root, a, b
}

// TestCrossDomainFramePingPong bounces datagrams between hosts in two
// domains running on two goroutines. A buffer is taken from the sender's
// domain list and released into the receiver's, so under -race this is the
// proof that no list is touched from two goroutines; the payload check is
// the proof that a buffer which changed domains carries the right bytes.
func TestCrossDomainFramePingPong(t *testing.T) {
	c, root, a, b := crossDomainPair(t)
	const lanes, bounces = 8, 50
	hops := make([]int, lanes)
	// lastAt records, per host, when each buffer last reached it; each map is
	// touched by its own domain only.
	lastAtA, lastAtB := map[*byte]time.Duration{}, map[*byte]time.Duration{}
	a.AddRxHook(func(p *netstack.Packet) { lastAtA[arrayEnd(p.Payload)] = a.Sim().Now() })
	b.AddRxHook(func(p *netstack.Packet) { lastAtB[arrayEnd(p.Payload)] = b.Sim().Now() })
	bounce := func(h *Host, port, peerPort uint16) *UDPSock {
		var sock *UDPSock
		sock, err := h.ListenUDP(port, func(src netstack.Addr, _ uint16, d []byte) {
			lane := int(d[0])
			if int(d[1]) != hops[lane] {
				t.Errorf("lane %d: %s got hop %d at hop %d", lane, h.Name, d[1], hops[lane])
			}
			if hops[lane]++; hops[lane] < bounces {
				sock.SendTo(src, peerPort, []byte{d[0], byte(hops[lane])})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sock
	}
	ping := bounce(a, 1000, 2000)
	bounce(b, 2000, 1000)
	root.Schedule(0, func() {
		for lane := 0; lane < lanes; lane++ {
			ping.SendTo(b.Addr(), 2000, []byte{byte(lane), 0})
		}
	})
	c.RunUntil(time.Duration(bounces+2) * netsim.TrunkLatency)
	for lane, n := range hops {
		if n != bounces {
			t.Errorf("lane %d made %d hops, want %d", lane, n, bounces)
		}
	}
	distinct := map[*byte]bool{}
	for buf := range lastAtA {
		distinct[buf] = true
	}
	for buf := range lastAtB {
		distinct[buf] = true
	}
	// Without recycling every hop would make a buffer. With it, a side makes
	// at most one beyond those in flight: its first answer is built before
	// the first arrival is released.
	if len(distinct) > lanes+2 {
		t.Errorf("%d frames carried by %d buffers, want at most %d", lanes*bounces, len(distinct), lanes+2)
	}
	// Every buffer is idle at the end, in the list of the domain whose host
	// received it last. Every datagram here is a control-class frame.
	idle := 0
	for _, side := range []struct {
		name        string
		s           *sim.Simulator
		mine, other map[*byte]time.Duration
	}{{"a", root, lastAtA, lastAtB}, {"b", b.Sim(), lastAtB, lastAtA}} {
		for _, class := range idleFrames(netsim.FramesOf(side.s)) {
			for _, buf := range class {
				idle++
				end := arrayEnd(buf)
				if at, ok := side.mine[end]; !ok || at < side.other[end] {
					t.Errorf("buffer idle in %s's domain was last received by the other host", side.name)
				}
			}
		}
	}
	if idle != len(distinct) {
		t.Errorf("%d buffers idle after the run, want all %d", idle, len(distinct))
	}
}

// TestIdleFramesAreBounded: a domain that only ever receives cross-domain
// traffic is handed a buffer with every frame; it keeps netsim.MaxIdleFrames
// of them and leaves the rest to the collector.
func TestIdleFramesAreBounded(t *testing.T) {
	c, root, a, b := crossDomainPair(t)
	got := 0
	if _, err := b.ListenUDP(2000, func(netstack.Addr, uint16, []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, err := a.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = netsim.MaxIdleFrames + 500
	root.Schedule(0, func() {
		for i := 0; i < n; i++ {
			sock.SendTo(b.Addr(), 2000, []byte{byte(i)})
		}
	})
	c.RunUntil(3 * netsim.TrunkLatency)
	if got != n {
		t.Fatalf("delivered %d of %d datagrams", got, n)
	}
	// Every datagram is a control-class frame: the receiving domain holds
	// one class's worth.
	if idle := len(idleFrames(netsim.FramesOf(b.Sim()))[0]); idle != netsim.MaxIdleFrames {
		t.Errorf("receiving domain holds %d idle buffers, want the cap %d", idle, netsim.MaxIdleFrames)
	}
	for class, idle := range idleFrames(netsim.FramesOf(root)) {
		if len(idle) != 0 {
			t.Errorf("sending domain holds %d idle buffers of class %d, want 0", len(idle), class)
		}
	}
}
