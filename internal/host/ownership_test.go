package host

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// Buffer-ownership tests for the single-buffer emit path: a segment is
// serialised once into a frame the host gives up to its NIC, so nothing the
// link does to that frame may reach back into the connection's send buffer,
// and frames parked behind ARP resolution must leave complete.

// TestImpairedLinkNeverAltersSndBuf corrupts every frame a sender emits
// (keeping about half alive through an intact duplicate, so the transfer
// still needs retransmissions) and checks that what is retransmitted — and
// so what the receiver finally assembles — is the original bytes: the
// in-flight frame never aliased the send buffer.
func TestImpairedLinkNeverAltersSndBuf(t *testing.T) {
	s := sim.New(11)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	var got []byte
	if err := b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 20*MSS+123)
	for i := range data {
		data[i] = byte(i*31 + i>>8)
	}
	c := a.Dial(b.Addr(), 80)
	s.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("state %v before the impaired phase", c.State())
	}
	a.NIC().Impair(netsim.Impairment{Dup: 0.5, Corrupt: 1})
	c.Write(data)
	s.RunFor(3 * time.Second)
	sndBuf := c.sndBase[c.sndOff:c.sndEnd]
	if len(sndBuf) == 0 {
		t.Fatal("impairment too mild: everything was acknowledged without a retransmission")
	}
	if unacked := data[len(data)-len(sndBuf):]; !bytes.Equal(sndBuf, unacked) {
		t.Fatalf("send buffer altered while its frames were corrupted in flight (first diff at %d)", firstDiff(sndBuf, unacked))
	}
	a.NIC().Impair(netsim.Impairment{})
	s.RunFor(2 * time.Minute)
	if !bytes.Equal(got, data) {
		t.Fatalf("receiver assembled %d bytes, first diff at %d: retransmissions did not carry the original bytes",
			len(got), firstDiff(got, data))
	}
}

// TestARPPendingFramesLeaveIntact queues datagrams and a SYN behind one
// unresolved next hop. They are parked as finished transport segments in
// their frame buffers; once ARP resolves each must leave whole, in order,
// with headers completed at emission (consecutive IP IDs).
func TestARPPendingFramesLeaveIntact(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	var ids []uint16
	b.AddRxHook(func(p *netstack.Packet) {
		if p.IP != nil {
			ids = append(ids, p.IP.ID)
		}
	})
	var got [][]byte
	if _, err := b.ListenUDP(2000, func(_ netstack.Addr, _ uint16, d []byte) {
		got = append(got, append([]byte(nil), d...))
	}); err != nil {
		t.Fatal(err)
	}
	accepted := false
	if err := b.Listen(80, func(*Conn) { accepted = true }); err != nil {
		t.Fatal(err)
	}
	sock, err := a.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("first"), bytes.Repeat([]byte{0xa5}, 1400), []byte("x")}
	for _, d := range want {
		sock.SendTo(b.Addr(), 2000, d)
	}
	a.Dial(b.Addr(), 80)
	s.RunFor(time.Second)
	if len(got) != len(want) {
		t.Fatalf("%d of %d parked datagrams delivered", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("parked datagram %d arrived altered", i)
		}
	}
	if !accepted {
		t.Error("parked SYN did not establish the connection")
	}
	if len(ids) < 4 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 || ids[3] != 4 {
		t.Errorf("IP IDs of the flushed frames = %v, want 1 2 3 4 first", ids)
	}
}

// TestSegmentAllocCeilingAccessToTrunk bounds what one data segment costs
// from Conn.Write across an access port to the trunk: the frame buffer and
// nothing else — the retransmission timer is re-armed in place and both
// link deliveries ride recycled records. The buffer itself is made anew for
// every segment: the frame ends at a bare trunk port, not at a host that
// would release it for reuse. A regression here fails go test without a
// benchmark run.
func TestSegmentAllocCeilingAccessToTrunk(t *testing.T) {
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw")
	a := New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	var trunkFrames, trunkBytes int
	var last []byte
	trunk := netsim.NewPort(s, "trunk", func(f []byte) { trunkFrames++; trunkBytes += len(f); last = f })
	netsim.Connect(sw.AddTrunkPort("t"), trunk, 0)

	// An established connection to a station behind the trunk, set up by
	// hand: nothing acknowledges, so the send buffer is sized up front.
	peerMAC, peerIP := netstack.MAC{2, 0, 0, 0, 0, 9}, netstack.MustParseAddr("10.0.0.9")
	teach := netstack.Packet{Eth: netstack.Ethernet{Dst: a.MAC(), Src: peerMAC, VLAN: 10, EtherType: netstack.EtherTypeIPv4}}
	trunk.Send(teach.Marshal())
	a.arpCache[peerIP] = peerMAC
	c := a.newConn(40000, peerIP, 80)
	c.state = StateEstablished
	c.iss, c.sndUna, c.sndNxt = 1, 2, 2
	c.sndBase = make([]byte, 0, 64*MSS)
	a.addConn(c)
	s.RunFor(time.Millisecond)

	seg := bytes.Repeat([]byte{0x5a}, MSS)
	const ceiling = 1
	allocs := testing.AllocsPerRun(20, func() {
		c.Write(seg)
		s.RunFor(time.Millisecond)
	})
	if allocs > ceiling {
		t.Errorf("one segment host -> access port -> trunk: %v allocs, ceiling %d", allocs, ceiling)
	}
	wantLen := netstack.EthHeaderLen + netstack.VLANTagLen + netstack.IPv4HeaderLen + netstack.TCPHeaderLen + MSS
	if trunkFrames != 21 || trunkBytes != 21*wantLen {
		t.Fatalf("trunk saw %d frames / %d bytes, want 21 of %d", trunkFrames, trunkBytes, wantLen)
	}
	if p, err := netstack.ParseFrame(last); err != nil || p.Eth.VLAN != 10 || !bytes.Equal(p.Payload, seg) {
		t.Fatalf("segment on the trunk does not reparse to what was written: %v", err)
	}
}

// TestSndBufSlidesOverOneArray streams 2 MiB in small paced writes, several
// of them in flight per round trip, and checks the send buffer kept sliding
// over one small backing array (instead of abandoning it on every ACK and
// reallocating on every write) without disturbing a byte of the stream.
func TestSndBufSlidesOverOneArray(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	var got []byte
	if err := b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	c := a.Dial(b.Addr(), 80)
	s.RunFor(time.Second)
	const chunk, total = 1000, 2 << 20
	var sent []byte
	maxLive := 0
	tick := s.Every(30*time.Microsecond, func() {
		if len(sent) >= total {
			return
		}
		w := make([]byte, chunk)
		for i := range w {
			w[i] = byte((len(sent) + i) * 7)
		}
		sent = append(sent, w...)
		c.Write(w)
		maxLive = max(maxLive, int(c.sndEnd-c.sndOff))
	})
	s.RunFor(time.Second)
	tick.Stop()
	if !bytes.Equal(got, sent) || len(sent) < total {
		t.Fatalf("stream altered: sent %d, received %d, first diff at %d", len(sent), len(got), firstDiff(got, sent))
	}
	if maxLive <= chunk {
		t.Fatalf("never more than one write unacknowledged (max %d): the slide with live bytes was not exercised", maxLive)
	}
	if limit := 4 * maxLive; cap(c.sndBase) > limit {
		t.Fatalf("send buffer grew to %d bytes for at most %d unacknowledged (limit %d)", cap(c.sndBase), maxLive, limit)
	}
	if c.sndOff != 0 || c.sndEnd != 0 {
		t.Fatalf("drained send buffer did not return to its base: [%d:%d] of %d", c.sndOff, c.sndEnd, cap(c.sndBase))
	}
}

// TestKeptBytesSurviveLaterFrames: receiveFrame parses every frame into one
// ParseBuf, so a packet is gone the moment the next frame arrives. Whatever
// the host keeps across frames — the out-of-order stash, frames parked
// behind ARP, the unacknowledged send buffer — must therefore be its own
// bytes. Park all three, run unrelated traffic of every kind through the
// host, then collect each and compare.
func TestKeptBytesSurviveLaterFrames(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	var conn *Conn
	reply := bytes.Repeat([]byte("unacknowledged reply "), 40)
	if err := h.Listen(80, func(c *Conn) {
		conn = c
		c.OnData = func(d []byte) { got = append(got, d...) }
		c.Write(reply) // the peer never acknowledges: stays in the send buffer
	}); err != nil {
		t.Fatal(err)
	}
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	seg := func(sport uint16, seq uint32, payload string) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: sport, DstPort: 80, Seq: seq, Ack: serverISN + 1,
			Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535,
		}, []byte(payload))
	}
	seg(5555, next+5, "WORLD") // out of order: stashed
	sock, err := h.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	silent := netstack.MustParseAddr("10.0.0.77") // nobody answers ARP for it yet
	parked := []string{"first parked", strings.Repeat("second parked ", 50), "third"}
	for _, d := range parked {
		sock.SendTo(silent, 2000, []byte(d))
	}
	s.RunFor(100 * time.Millisecond)
	if conn == nil || conn.stashed() != 1 {
		t.Fatalf("setup: conn %v, %d stashed", conn != nil, conn.stashed())
	}

	// Unrelated frames of every kind the host parses: segments for sockets
	// it does not have (answered with RST), datagrams, ARP chatter.
	for i := 0; i < 50; i++ {
		seg(uint16(6000+i), 1, strings.Repeat("x", 64+i))
		udp := &netstack.Packet{
			Eth:     netstack.Ethernet{Dst: h.MAC(), Src: peer.mac, EtherType: netstack.EtherTypeIPv4},
			IP:      &netstack.IPv4{TTL: 64, Src: peer.addr, Dst: h.Addr()},
			UDP:     &netstack.UDP{SrcPort: 9, DstPort: uint16(3000 + i)},
			Payload: bytes.Repeat([]byte{byte(i)}, 100),
		}
		peer.port.Send(udp.Marshal())
		arp := &netstack.Packet{
			Eth: netstack.Ethernet{Dst: netstack.BroadcastMAC, Src: peer.mac, EtherType: netstack.EtherTypeARP},
			ARP: &netstack.ARP{Op: netstack.ARPRequest, SenderHW: peer.mac, SenderIP: peer.addr, TargetIP: h.Addr()},
		}
		peer.port.Send(arp.Marshal())
	}
	s.RunFor(100 * time.Millisecond)

	if sndBuf := conn.sndBase[conn.sndOff:conn.sndEnd]; !bytes.Equal(sndBuf, reply) {
		t.Errorf("send buffer altered by later frames (first diff at %d)", firstDiff(sndBuf, reply))
	}
	seg(5555, next, "HELLO")
	s.RunFor(100 * time.Millisecond)
	if string(got) != "HELLOWORLD" {
		t.Errorf("reassembled %q from the stash, want HELLOWORLD", got)
	}
	// The silent neighbour finally speaks up — from the peer's MAC, so the
	// parked datagrams land at the peer.
	peer.rx = nil
	hello := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: netstack.BroadcastMAC, Src: peer.mac, EtherType: netstack.EtherTypeARP},
		ARP: &netstack.ARP{Op: netstack.ARPReply, SenderHW: peer.mac, SenderIP: silent, TargetHW: h.MAC(), TargetIP: h.Addr()},
	}
	peer.port.Send(hello.Marshal())
	s.RunFor(100 * time.Millisecond)
	var flushed []string
	for _, p := range peer.rx {
		if p.UDP != nil && p.IP.Dst == silent {
			flushed = append(flushed, string(p.Payload))
		}
	}
	if !reflect.DeepEqual(flushed, parked) {
		t.Errorf("parked datagrams left as %q, want %q", flushed, parked)
	}
	// And the retransmission timer resends the reply as written.
	peer.rx = nil
	s.RunFor(2 * time.Second)
	var resent []byte
	for _, p := range peer.rx {
		if p.TCP != nil && p.TCP.SrcPort == 80 && p.TCP.Seq == serverISN+1+uint32(len(resent)) {
			resent = append(resent, p.Payload...)
		}
	}
	if !bytes.Equal(resent, reply) {
		t.Errorf("retransmitted %d bytes, first diff at %d", len(resent), firstDiff(resent, reply))
	}
}

// TestARPPendingQueueIsBounded floods an unresolvable on-link neighbour:
// the host parks netstack.MaxARPPending frames, drops and counts the rest,
// and forgets all of them when resolution times out.
func TestARPPendingQueueIsBounded(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(t, s)
	sock, err := a.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := netstack.MustParseAddr("10.0.0.99")
	const flood = 10000
	for i := 0; i < flood; i++ {
		sock.SendTo(dead, 7, []byte("into the void"))
	}
	if got := a.arpDrops.Value(); got != flood-netstack.MaxARPPending {
		t.Errorf("host.arp_pending_drops = %d, want %d", got, flood-netstack.MaxARPPending)
	}
	s.Run()
	if w := a.arpWaits.Learned(dead); w != nil || s.Pending() != 0 {
		t.Errorf("after the ARP timeout: wait %v, %d events still pending", w, s.Pending())
	}
	// A later frame starts over with an empty queue.
	sock.SendTo(dead, 7, []byte("again"))
	if w := a.arpWaits.Learned(dead); w == nil || len(w.Frames) != 1 {
		t.Errorf("after the timeout a new frame parks as %v, want one frame", w)
	}
}
