package netstack

import (
	"bytes"
	"testing"
)

// FuzzParseFrame: every frame a farm machine receives passes through
// ParseBuf.Parse, inmates' frames included, so it must not panic on any
// input. A frame it accepts must marshal back through MarshalTo, with a
// header field changed on the way, into bytes that parse to an equal packet:
// patched in its own buffer without taking one (the in-place path, with its
// incremental checksum updates), and rebuilt from the structs into exactly
// the one buffer it takes (the path every originated frame takes).
func FuzzParseFrame(f *testing.F) {
	mac1, mac2 := MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2}
	seeds := []*Packet{
		{ // TestPacketRoundTripTCP
			Eth: Ethernet{Dst: mac1, Src: mac2, VLAN: 12, EtherType: EtherTypeIPv4},
			IP:  &IPv4{TTL: 64, Src: MustParseAddr("10.0.0.23"), Dst: MustParseAddr("192.150.187.12")},
			TCP: &TCP{SrcPort: 1234, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 8192},
		},
		{
			Eth:     Ethernet{Dst: mac1, Src: mac2, EtherType: EtherTypeIPv4},
			IP:      &IPv4{TTL: 64, ID: 7, Flags: 2, Src: MustParseAddr("10.3.0.5"), Dst: MustParseAddr("192.150.187.12")},
			TCP:     &TCP{SrcPort: 1234, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 8192, Urgent: 3},
			Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
		},
		{ // TestPropertyFrameRoundTrip
			Eth:     Ethernet{Dst: BroadcastMAC, Src: mac2, VLAN: 4094, Priority: 5, EtherType: EtherTypeIPv4},
			IP:      &IPv4{TTL: 64, Src: MustParseAddr("10.0.0.23"), Dst: MustParseAddr("10.3.0.2")},
			UDP:     &UDP{SrcPort: 5353, DstPort: 53},
			Payload: []byte{1, 2, 3},
		},
		{ // TestPacketRoundTripARP
			Eth: Ethernet{Dst: BroadcastMAC, Src: MAC{2, 0, 0, 0, 0, 9}, VLAN: 7, EtherType: EtherTypeARP},
			ARP: &ARP{Op: ARPRequest, SenderHW: MAC{2, 0, 0, 0, 0, 9}, SenderIP: 10, TargetIP: 11},
		},
		{ // an IP protocol the stack does not parse
			Eth:     Ethernet{Dst: mac1, Src: mac2, EtherType: EtherTypeIPv4},
			IP:      &IPv4{TTL: 64, Protocol: ProtoGRE, Src: 1, Dst: 2},
			Payload: []byte("\x00\x00\x08\x00inner"),
		},
	}
	for _, p := range seeds {
		frame := p.Marshal()
		f.Add(frame, uint8(63), uint16(8080))
		f.Add(append(frame, 0, 0, 0), uint8(1), uint16(0)) // bytes behind the datagram
	}
	// A UDP datagram without a checksum, and IP and TCP options.
	udp := seeds[2].Marshal()
	udp[len(udp)-5], udp[len(udp)-4] = 0, 0
	f.Add(udp, uint8(9), uint16(9))
	f.Add(withOptions(seeds[1]), uint8(2), uint16(2))
	f.Add([]byte("\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02\x88\xb5unknown ethertype"), uint8(0), uint16(0))

	f.Fuzz(func(t *testing.T, frame []byte, ttl uint8, port uint16) {
		var pb ParseBuf
		p, err := pb.Parse(append([]byte(nil), frame...))
		if err != nil || p.Eth.EtherType == EtherTypeVLAN {
			// Stacked tags are not modelled (see FuzzVLANReshape).
			return
		}
		change := func(p *Packet) {
			if p.IP != nil {
				p.IP.TTL = ttl
			}
			switch {
			case p.TCP != nil:
				p.TCP.DstPort = port
			case p.UDP != nil:
				p.UDP.DstPort = port
			}
		}
		change(p)
		for _, rebuild := range []bool{false, true} {
			q, err := pb.Parse(append([]byte(nil), frame...))
			if err != nil {
				t.Fatalf("second parse of the same bytes failed: %v", err)
			}
			change(q)
			if rebuild {
				q.wire = nil
			}
			var taken []byte
			out := q.MarshalTo(func(n int) []byte {
				if taken != nil {
					t.Fatal("MarshalTo took two buffers")
				}
				taken = make([]byte, 0, n)
				return taken
			})
			if rebuild != (taken != nil) {
				t.Fatalf("rebuild %v: MarshalTo took a buffer: %v", rebuild, taken != nil)
			}
			if rebuild && (len(out) == 0 || cap(out) != cap(taken) || &out[0] != &taken[:1][0]) {
				t.Fatalf("the rebuilt frame (%d bytes) is not in the %d-byte buffer taken for it", len(out), cap(taken))
			}
			r, err := ParseFrame(out)
			if err != nil {
				t.Fatalf("rebuild %v: the marshalled frame does not parse: %v\nwas % x\nnow % x", rebuild, err, frame, out)
			}
			if !samePacket(r, q) {
				t.Fatalf("rebuild %v: the marshalled frame parses to a different packet:\nwant %v\ngot  %v", rebuild, q, r)
			}
		}
	})
}

// withOptions marshals an untagged TCP packet with four bytes of IP options
// and four of TCP options, which the stack does not model.
func withOptions(p *Packet) []byte {
	opts := []byte{1, 1, 1, 0} // three NOPs and an end of list
	seg := p.TCP.Marshal(nil, p.IP.Src, p.IP.Dst, nil)
	seg = append(append(seg, opts...), p.Payload...)
	seg[12], seg[16], seg[17] = (TCPHeaderLen+4)/4<<4, 0, 0
	sum := Checksum(seg, pseudoHeaderSum(p.IP.Src, p.IP.Dst, ProtoTCP, len(seg)))
	seg[16], seg[17] = byte(sum>>8), byte(sum)
	frame := p.Eth.Marshal(nil)
	ip := len(frame)
	ipHdr := IPv4{TTL: p.IP.TTL, Protocol: ProtoTCP, Src: p.IP.Src, Dst: p.IP.Dst}
	body := append(opts, seg...)
	frame = append(frame, make([]byte, IPv4HeaderLen)...)
	ipHdr.PutHeader(frame[ip:], len(body))
	frame = append(frame, body...)
	frame[ip], frame[ip+10], frame[ip+11] = 0x46, 0, 0
	sum = Checksum(frame[ip:ip+IPv4HeaderLen+4], 0)
	frame[ip+10], frame[ip+11] = byte(sum>>8), byte(sum)
	return frame
}

// samePacket reports whether two packets carry the same layers, header
// fields and payload, up to what a marshal recomputes (IP and UDP lengths)
// or an untagged frame cannot carry (a priority without a VLAN).
func samePacket(a, b *Packet) bool {
	ea, eb := a.Eth, b.Eth
	if ea.VLAN == NoVLAN {
		ea.Priority, eb.Priority = 0, 0
	}
	if ea != eb || !bytes.Equal(a.Payload, b.Payload) ||
		(a.ARP == nil) != (b.ARP == nil) || (a.IP == nil) != (b.IP == nil) ||
		(a.TCP == nil) != (b.TCP == nil) || (a.UDP == nil) != (b.UDP == nil) {
		return false
	}
	if a.ARP != nil && *a.ARP != *b.ARP || a.TCP != nil && *a.TCP != *b.TCP {
		return false
	}
	if a.IP != nil {
		ia, ib := *a.IP, *b.IP
		ia.Length, ib.Length = 0, 0
		if ia != ib {
			return false
		}
	}
	if a.UDP != nil {
		ua, ub := *a.UDP, *b.UDP
		ua.Length, ub.Length = 0, 0
		if ua != ub {
			return false
		}
	}
	return true
}

// FuzzParseIPPacket: ParseIPPacket decodes the inner packet of a GRE
// tunnel, bytes from outside the farm, so it must not panic on any input.
// A packet it accepts marshals back through MarshalIPPacket into bytes
// that parse to equal headers and payload.
func FuzzParseIPPacket(f *testing.F) {
	seeds := []*Packet{
		{
			IP:  &IPv4{TTL: 64, Src: MustParseAddr("10.0.0.23"), Dst: MustParseAddr("192.150.187.12")},
			TCP: &TCP{SrcPort: 1234, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 8192},
		},
		{
			IP:      &IPv4{TTL: 64, ID: 7, Flags: 2, Src: MustParseAddr("10.3.0.5"), Dst: MustParseAddr("192.150.187.12")},
			TCP:     &TCP{SrcPort: 1234, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 8192, Urgent: 3},
			Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
		},
		{
			IP:      &IPv4{TTL: 64, Src: MustParseAddr("10.0.0.23"), Dst: MustParseAddr("10.3.0.2")},
			UDP:     &UDP{SrcPort: 5353, DstPort: 53},
			Payload: []byte{1, 2, 3},
		},
		{ // a tunnel inside the tunnel: a protocol the stack does not parse
			IP:      &IPv4{TTL: 64, Protocol: ProtoGRE, Src: 1, Dst: 2},
			Payload: []byte("\x00\x00\x08\x00inner"),
		},
	}
	for _, p := range seeds {
		p.Eth.EtherType = EtherTypeIPv4
		b := MarshalIPPacket(p)
		f.Add(b)
		f.Add(append(b, 0, 0, 0)) // bytes behind the datagram
		f.Add(b[:len(b)-1])
	}
	f.Add(withOptions(&Packet{IP: seeds[1].IP, TCP: seeds[1].TCP, Payload: seeds[1].Payload})[EthHeaderLen:])

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParseIPPacket(b)
		if err != nil {
			return
		}
		out := MarshalIPPacket(p)
		q, err := ParseIPPacket(out)
		if err != nil {
			t.Fatalf("the marshalled packet does not parse: %v\nwas % x\nnow % x", err, b, out)
		}
		if !samePacket(p, q) {
			t.Fatalf("the marshalled packet parses to a different packet:\nwant %v\ngot  %v", p, q)
		}
	})
}
