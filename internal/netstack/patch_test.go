package netstack

import (
	"bytes"
	"testing"
	"testing/quick"
)

// testTCPFrame builds a tagged TCP frame and returns the parsed packet and
// its wire bytes.
func testTCPFrame(t *testing.T, payload []byte) (*Packet, []byte) {
	t.Helper()
	p := &Packet{
		Eth: Ethernet{Dst: MAC{2, 0, 0, 0, 0, 1}, Src: MAC{2, 0, 0, 0, 0, 2},
			VLAN: 12, EtherType: EtherTypeIPv4},
		IP: &IPv4{TTL: 64, Protocol: ProtoTCP,
			Src: MustParseAddr("10.3.0.5"), Dst: MustParseAddr("192.150.187.12")},
		TCP: &TCP{SrcPort: 1234, DstPort: 80, Seq: 1000, Ack: 2000,
			Flags: FlagACK | FlagPSH, Window: 8192},
		Payload: payload,
	}
	frame := p.Marshal()
	q, err := ParseFrame(append([]byte(nil), frame...))
	if err != nil {
		t.Fatal(err)
	}
	return q, frame
}

// reparse asserts the frame still decodes with valid checksums.
func reparse(t *testing.T, frame []byte) *Packet {
	t.Helper()
	q, err := ParseFrame(append([]byte(nil), frame...))
	if err != nil {
		t.Fatalf("patched frame no longer parses: %v", err)
	}
	return q
}

func TestRetagVLAN(t *testing.T) {
	_, frame := testTCPFrame(t, []byte("hello"))
	if !RetagVLAN(frame, 42) {
		t.Fatal("RetagVLAN refused a tagged frame")
	}
	q := reparse(t, frame)
	if q.Eth.VLAN != 42 {
		t.Fatalf("VLAN = %d, want 42", q.Eth.VLAN)
	}
	// Untagged frames need the slow path.
	unt := (&Packet{
		Eth:     Ethernet{EtherType: EtherTypeIPv4},
		IP:      &IPv4{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2},
		UDP:     &UDP{SrcPort: 1, DstPort: 2},
		Payload: nil,
	}).Marshal()
	if RetagVLAN(unt, 42) {
		t.Fatal("RetagVLAN accepted an untagged frame")
	}
	if RetagVLAN(frame, NoVLAN) || RetagVLAN(frame, MaxVLAN+1) {
		t.Fatal("RetagVLAN accepted an invalid VLAN ID")
	}
}

func TestRetagVLANPreservesPriority(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{VLAN: 5, Priority: 3, EtherType: EtherTypeIPv4},
		IP:  &IPv4{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2},
		UDP: &UDP{SrcPort: 1, DstPort: 2},
	}
	frame := p.Marshal()
	RetagVLAN(frame, 9)
	q := reparse(t, frame)
	if q.Eth.VLAN != 9 || q.Eth.Priority != 3 {
		t.Fatalf("vlan=%d priority=%d, want 9/3", q.Eth.VLAN, q.Eth.Priority)
	}
}

func TestSetEthAddrs(t *testing.T) {
	q, frame := testTCPFrame(t, nil)
	d := MAC{2, 9, 9, 9, 9, 1}
	if !SetEthDst(frame, d) {
		t.Fatal("MAC rewrite refused")
	}
	r := reparse(t, frame)
	if r.Eth.Dst != d || r.Eth.Src != q.Eth.Src {
		t.Fatalf("MACs = %v/%v, want %v/%v", r.Eth.Dst, r.Eth.Src, d, q.Eth.Src)
	}
}

func TestPatchIPAddrsTCP(t *testing.T) {
	_, frame := testTCPFrame(t, []byte("payload bytes"))
	src, dst := MustParseAddr("172.16.0.9"), MustParseAddr("10.1.2.3")
	if !PatchIPSrc(frame, src) || !PatchIPDst(frame, dst) {
		t.Fatal("patch refused")
	}
	q := reparse(t, frame) // verifies IP header and TCP pseudo-header checksums
	if q.IP.Src != src || q.IP.Dst != dst {
		t.Fatalf("addrs = %v > %v", q.IP.Src, q.IP.Dst)
	}
	if string(q.Payload) != "payload bytes" {
		t.Fatalf("payload corrupted: %q", q.Payload)
	}
}

func TestPatchIPAddrsUDP(t *testing.T) {
	p := &Packet{
		Eth:     Ethernet{VLAN: 7, EtherType: EtherTypeIPv4},
		IP:      &IPv4{TTL: 64, Protocol: ProtoUDP, Src: 3, Dst: 4},
		UDP:     &UDP{SrcPort: 53, DstPort: 999},
		Payload: []byte("dns-ish"),
	}
	frame := p.Marshal()
	if !PatchIPDst(frame, MustParseAddr("10.0.0.23")) {
		t.Fatal("patch refused")
	}
	q := reparse(t, frame) // UDP checksum verified on parse
	if q.IP.Dst != MustParseAddr("10.0.0.23") {
		t.Fatalf("dst = %v", q.IP.Dst)
	}
}

func TestBumpTCPSeqAck(t *testing.T) {
	q, frame := testTCPFrame(t, []byte("x"))
	if !BumpTCPSeq(frame, 7) {
		t.Fatal("bump refused")
	}
	r := reparse(t, frame) // verifies the TCP checksum fixup
	if r.TCP.Seq != q.TCP.Seq+7 || r.TCP.Ack != q.TCP.Ack {
		t.Fatalf("seq/ack = %d/%d, want %d/%d", r.TCP.Seq, r.TCP.Ack, q.TCP.Seq+7, q.TCP.Ack)
	}
}

// Property: patching random addresses into random TCP/UDP frames always
// leaves checksums consistent (the frame re-parses).
func TestPropertyPatchChecksumConsistent(t *testing.T) {
	f := func(srcIn, dstIn, srcOut, dstOut uint32, udp bool, seqDelta uint32, payload []byte) bool {
		p := &Packet{
			Eth: Ethernet{VLAN: 30, EtherType: EtherTypeIPv4},
			IP:  &IPv4{TTL: 64, Src: Addr(srcIn), Dst: Addr(dstIn)},
		}
		if udp {
			p.IP.Protocol = ProtoUDP
			p.UDP = &UDP{SrcPort: 7, DstPort: 8}
		} else {
			p.IP.Protocol = ProtoTCP
			p.TCP = &TCP{SrcPort: 7, DstPort: 8, Seq: 1, Ack: 2, Flags: FlagACK}
		}
		p.Payload = payload
		frame := p.Marshal()
		PatchIPSrc(frame, Addr(srcOut))
		PatchIPDst(frame, Addr(dstOut))
		if !udp {
			BumpTCPSeq(frame, seqDelta)
		}
		_, err := ParseFrame(frame)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalFastPathAliasesWire(t *testing.T) {
	q, _ := testTCPFrame(t, []byte("hello"))
	out := q.Marshal()
	if len(out) == 0 || &out[0] != &q.wire[0] {
		t.Fatal("unmodified packet did not take the zero-copy fast path")
	}
}

func TestMarshalFastPathMatchesSlowPath(t *testing.T) {
	mutate := func(p *Packet) {
		p.Eth.Dst = MAC{2, 1, 1, 1, 1, 1}
		p.Eth.VLAN = 99
		p.IP.Src = MustParseAddr("10.9.9.9")
		p.IP.Dst = MustParseAddr("10.8.8.8")
		p.IP.TTL--
		p.TCP.SrcPort = 40000
		p.TCP.Seq += 12345
		p.TCP.Ack -= 777
		p.TCP.Flags |= FlagURG
		p.TCP.Window = 1
	}
	fast, _ := testTCPFrame(t, []byte("same payload"))
	slow, _ := testTCPFrame(t, []byte("same payload"))
	mutate(fast)
	mutate(slow)
	slow.wire = nil // force full re-serialisation
	f, s := fast.Marshal(), slow.Marshal()
	if !bytes.Equal(f, s) {
		t.Fatalf("fast path diverges from slow path:\nfast % x\nslow % x", f, s)
	}
	if _, err := ParseFrame(append([]byte(nil), f...)); err != nil {
		t.Fatalf("fast-path frame invalid: %v", err)
	}
}

func TestMarshalSlowPathOnShapeChange(t *testing.T) {
	// Replacing the payload must fall back to re-serialisation.
	q2, _ := testTCPFrame(t, []byte("aa"))
	q2.Payload = []byte("bbbb")
	out2 := q2.Marshal()
	if len(out2) != 0 && len(q2.wire) != 0 && &out2[0] == &q2.wire[0] {
		t.Fatal("payload swap still aliased the stale wire buffer")
	}
	if r := reparse(t, out2); string(r.Payload) != "bbbb" {
		t.Fatalf("payload = %q", r.Payload)
	}

	// So must a tag change on top of a replaced payload: the reshape only
	// applies while the payload still is the wire's.
	q3, _ := testTCPFrame(t, []byte("aa"))
	q3.Payload = []byte("cccc")
	q3.Eth.VLAN = NoVLAN
	if r := reparse(t, q3.Marshal()); r.Eth.VLAN != NoVLAN || string(r.Payload) != "cccc" {
		t.Fatalf("reshaped frame wrong: %v", r)
	}
}

// TestMarshalVLANReshapeInPlace pins the tag add/strip shape change: the
// frame stays in the parsed buffer when it has the room, the result equals
// a full re-serialisation byte for byte, and header mutations made
// alongside the tag change keep their incremental checksums.
func TestMarshalVLANReshapeInPlace(t *testing.T) {
	nat := func(p *Packet) {
		p.Eth.Dst = MAC{2, 1, 1, 1, 1, 1}
		p.IP.Src = MustParseAddr("192.0.2.77")
		p.TCP.SrcPort = 40000
		p.TCP.Seq += 99
	}
	want := func(mutate func(*Packet)) []byte {
		ref, _ := testTCPFrame(t, []byte("payload rides along"))
		mutate(ref)
		ref.wire = nil // full re-serialisation
		return ref.Marshal()
	}

	// Strip (outbound NAT): always in place, and hands back tail room.
	strip := func(p *Packet) { nat(p); p.Eth.VLAN = NoVLAN }
	q, _ := testTCPFrame(t, []byte("payload rides along"))
	base := &q.wire[0]
	strip(q)
	out := q.Marshal()
	if &out[0] != base {
		t.Fatal("stripping the tag left the parsed buffer")
	}
	if !bytes.Equal(out, want(strip)) {
		t.Fatalf("in-place strip diverges from re-serialisation:\ngot  % x\nwant % x", out, want(strip))
	}
	if cap(out)-len(out) < VLANTagLen {
		t.Fatal("stripping the tag did not hand back tail room")
	}
	if r := reparse(t, out); r.Eth.VLAN != NoVLAN || string(r.Payload) != "payload rides along" {
		t.Fatalf("stripped frame wrong: %v", r)
	}
	if string(q.Payload) != "payload rides along" {
		t.Fatalf("Payload alias not moved with the bytes: %q", q.Payload)
	}

	// Add (inbound, toward a VLAN) on the stripped frame: the tail room is
	// there, so it stays in the same buffer; a second Marshal is stable.
	add := func(p *Packet) { p.Eth.VLAN = 31; p.IP.Dst = MustParseAddr("10.3.0.9") }
	p, err := ParseFrame(out)
	if err != nil {
		t.Fatal(err)
	}
	add(p)
	tagged := p.Marshal()
	if &tagged[0] != base {
		t.Fatal("adding the tag with tail room left the parsed buffer")
	}
	if again := p.Marshal(); &again[0] != base || len(again) != len(tagged) {
		t.Fatal("second Marshal after a reshape is not a no-op")
	}
	if !bytes.Equal(tagged, want(func(p *Packet) { strip(p); add(p) })) {
		t.Fatal("in-place add diverges from re-serialisation")
	}
	if r := reparse(t, tagged); r.Eth.VLAN != 31 || r.IP.Dst != MustParseAddr("10.3.0.9") || string(r.Payload) != "payload rides along" {
		t.Fatalf("tagged frame wrong: %v", r)
	}

	// Add without tail room: one fresh buffer, same bytes, original intact.
	untagged := want(strip)
	tight := append(make([]byte, 0, len(untagged)), untagged...)
	p, err = ParseFrame(tight)
	if err != nil {
		t.Fatal(err)
	}
	add(p)
	moved := p.Marshal()
	if &moved[0] == &tight[0] {
		t.Fatal("tag insert without tail room wrote past the buffer")
	}
	if !bytes.Equal(moved, tagged) {
		t.Fatal("tag insert without tail room diverges from the in-place one")
	}
	if !bytes.Equal(tight, untagged) {
		t.Fatal("tag insert without tail room modified the original buffer")
	}
}

// TestMarshalAllocCeilings keeps the allocation cost of Marshal from
// regressing without a benchmark run: one buffer for a packet built from
// structs, none for a NAT rewrite with a VLAN strip or add.
func TestMarshalAllocCeilings(t *testing.T) {
	built := &Packet{
		Eth:     Ethernet{Dst: MAC{2, 0, 0, 0, 0, 1}, Src: MAC{2, 0, 0, 0, 0, 2}, EtherType: EtherTypeIPv4},
		IP:      &IPv4{TTL: 64, Src: MustParseAddr("10.3.0.5"), Dst: MustParseAddr("192.150.187.12")},
		TCP:     &TCP{SrcPort: 1234, DstPort: 80, Flags: FlagACK},
		Payload: make([]byte, 1460),
	}
	if n := testing.AllocsPerRun(100, func() { built.Marshal() }); n > 1 {
		t.Errorf("Marshal from structs: %v allocs, want at most 1", n)
	}

	q, _ := testTCPFrame(t, make([]byte, 1460))
	vlan := q.Eth.VLAN
	if n := testing.AllocsPerRun(100, func() {
		q.Eth.VLAN = NoVLAN
		q.IP.Src++
		q.Marshal()
		q.Eth.VLAN = vlan
		q.IP.Src--
		q.Marshal()
	}); n != 0 {
		t.Errorf("Marshal after a VLAN strip and add: %v allocs, want 0", n)
	}
}

func TestAppendWireNeverAliases(t *testing.T) {
	q, _ := testTCPFrame(t, []byte("scratch me"))
	scratch := make([]byte, 0, 256)
	out := q.AppendWire(scratch)
	if &out[0] == &q.wire[0] {
		t.Fatal("AppendWire aliased the packet's wire buffer")
	}
	if !bytes.Equal(out, q.wire) {
		t.Fatal("AppendWire output differs from wire")
	}
	// Reusing the scratch must not disturb a previously marshalled frame
	// once it has been copied out (ownership rule), but the append itself
	// must start at the scratch base.
	if cap(scratch) >= len(out) && &out[0] != &scratch[:1][0] {
		t.Fatal("AppendWire did not reuse the scratch buffer")
	}
}

func TestMarshalFastPathUDPZeroChecksum(t *testing.T) {
	// A UDP datagram carrying a zero (uncomputed) checksum must keep it
	// zero across an address patch.
	p := &Packet{
		Eth:     Ethernet{VLAN: 3, EtherType: EtherTypeIPv4},
		IP:      &IPv4{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2},
		UDP:     &UDP{SrcPort: 9, DstPort: 10},
		Payload: []byte("z"),
	}
	frame := p.Marshal()
	l3, ihl, ok := ipLayout(frame)
	if !ok {
		t.Fatal("bad frame")
	}
	seg := frame[l3+ihl:]
	seg[6], seg[7] = 0, 0 // pretend the sender skipped the checksum
	// Fix the IP header only (checksum untouched by UDP bytes).
	q, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	q.IP.Dst = MustParseAddr("10.0.0.99")
	out := q.Marshal()
	r := reparse(t, out)
	if r.IP.Dst != MustParseAddr("10.0.0.99") {
		t.Fatalf("dst = %v", r.IP.Dst)
	}
	l3, ihl, _ = ipLayout(out)
	if got := out[l3+ihl+6:][:2]; got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero UDP checksum was recomputed to % x", got)
	}
}

// A priority-tagged frame (802.1Q tag with VID 0) parses as untagged; its
// layer offsets must still be those of the bytes on the wire, so a header
// rewrite patches the right fields and Marshal sheds the tag in place.
func TestParsePriorityTaggedFrameOffsets(t *testing.T) {
	_, frame := testTCPFrame(t, []byte("priority tagged"))
	frame[14], frame[15] = 0xa0, 0x00 // PCP 5, VID 0
	p, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eth.VLAN != NoVLAN || p.l3Off != ethTaggedHdrLen || p.payOff != ethTaggedHdrLen+IPv4HeaderLen+TCPHeaderLen {
		t.Fatalf("VLAN %d, l3Off %d, payOff %d", p.Eth.VLAN, p.l3Off, p.payOff)
	}
	p.IP.Src = MustParseAddr("192.0.2.16")
	out := p.Marshal()
	if &out[0] != &frame[0] {
		t.Error("priority-tagged frame fell off the in-place path")
	}
	r := reparse(t, out)
	if len(out) != len(frame)-VLANTagLen || r.Eth.VLAN != NoVLAN || r.IP.Src != p.IP.Src || string(r.Payload) != "priority tagged" {
		t.Fatalf("rewritten frame wrong (%d bytes): %v", len(out), r)
	}
}

// FuzzVLANReshape drives the in-place tag insert/strip of Marshal with
// arbitrary frames that parse: whatever the layers, lengths and trailing
// bytes, the reshaped frame must reparse (checksums included) to the same
// packet with only the tag changed, be exactly one tag longer or shorter,
// and survive the trip back to its original bytes.
func FuzzVLANReshape(f *testing.F) {
	tcp := &Packet{
		Eth:     Ethernet{Dst: MAC{2, 0, 0, 0, 0, 1}, Src: MAC{2, 0, 0, 0, 0, 2}, VLAN: 12, Priority: 5, EtherType: EtherTypeIPv4},
		IP:      &IPv4{TTL: 64, Src: MustParseAddr("10.3.0.5"), Dst: MustParseAddr("192.150.187.12")},
		TCP:     &TCP{SrcPort: 1234, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 8192},
		Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
	}
	udp := &Packet{
		Eth:     Ethernet{Dst: BroadcastMAC, Src: MAC{2, 0, 0, 0, 0, 3}, EtherType: EtherTypeIPv4},
		IP:      &IPv4{TTL: 64, Src: MustParseAddr("10.0.0.23"), Dst: MustParseAddr("10.3.0.2")},
		UDP:     &UDP{SrcPort: 5353, DstPort: 53},
		Payload: []byte{1, 2, 3},
	}
	arp := &Packet{
		Eth: Ethernet{Dst: BroadcastMAC, Src: MAC{2, 0, 0, 0, 0, 4}, VLAN: 4094, EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest, SenderHW: MAC{2, 0, 0, 0, 0, 4}, SenderIP: 1, TargetIP: 2},
	}
	for _, p := range []*Packet{tcp, udp, arp} {
		f.Add(p.Marshal(), uint16(31), uint8(VLANTagLen))
		f.Add(append(p.Marshal(), 0, 0, 0), uint16(1), uint8(0)) // trailing bytes, no tail room
	}
	f.Add([]byte("\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02\x88\xb5unknown ethertype"), uint16(7), uint8(1))

	f.Fuzz(func(t *testing.T, frame []byte, vlan uint16, room uint8) {
		orig, err := ParseFrame(append([]byte(nil), frame...))
		if err != nil {
			return
		}
		if wireTagged := frame[12] == 0x81 && frame[13] == 0; orig.Eth.EtherType == EtherTypeVLAN ||
			wireTagged && (orig.Eth.VLAN == NoVLAN || frame[14]&0x10 != 0) {
			// Ethernet models neither stacked tags, nor a priority tag (VID
			// 0 parses as untagged and is dropped on Marshal), nor the DEI
			// bit, so these have no exact round trip.
			return
		}
		buf := append(make([]byte, 0, len(frame)+int(room%8)), frame...)
		p, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("second parse of the same bytes failed: %v", err)
		}
		want, delta := NoVLAN, -VLANTagLen
		if p.Eth.VLAN == NoVLAN {
			want, delta = vlan%MaxVLAN+1, VLANTagLen
		}
		p.Eth.VLAN = want
		out := p.Marshal()
		if len(out) != len(frame)+delta {
			t.Fatalf("reshaped frame is %d bytes, want %d%+d", len(out), len(frame), delta)
		}
		if string(p.Payload) != string(orig.Payload) {
			t.Fatalf("Payload alias lost its bytes in the reshape: %q, was %q", p.Payload, orig.Payload)
		}
		q, err := ParseFrame(append([]byte(nil), out...))
		if err != nil {
			t.Fatalf("reshaped frame does not reparse: %v", err)
		}
		if q.Eth.VLAN != want || q.Eth.Dst != orig.Eth.Dst || q.Eth.Src != orig.Eth.Src ||
			q.Eth.EtherType != orig.Eth.EtherType || string(q.Payload) != string(orig.Payload) ||
			(q.IP == nil) != (orig.IP == nil) || (q.TCP == nil) != (orig.TCP == nil) ||
			(q.UDP == nil) != (orig.UDP == nil) || (q.ARP == nil) != (orig.ARP == nil) {
			t.Fatalf("reshaped frame reparsed to a different packet:\nwas %v\nnow %v", orig, q)
		}
		// And back again: the original bytes, to the last trailing one
		// (a re-inserted tag carries the original priority bits too).
		q.Eth.VLAN, q.Eth.Priority = orig.Eth.VLAN, orig.Eth.Priority
		if back := q.Marshal(); !bytes.Equal(back, frame) {
			t.Fatalf("round trip changed the frame:\nwas % x\nnow % x", frame, back)
		}
	})
}
