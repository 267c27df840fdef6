package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"10.0.0.23", AddrFrom4(10, 0, 0, 23), true},
		{"192.150.187.12", AddrFrom4(192, 150, 187, 12), true},
		{"255.255.255.255", 0xffffffff, true},
		{"0.0.0.0", 0, true},
		{"256.1.1.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"01.2.3.4", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefix(t *testing.T) {
	p := MustParsePrefix("10.3.0.0/16")
	if !p.Contains(MustParseAddr("10.3.9.241")) {
		t.Error("prefix should contain 10.3.9.241")
	}
	if p.Contains(MustParseAddr("10.4.0.1")) {
		t.Error("prefix should not contain 10.4.0.1")
	}
	if p.Size() != 1<<16 {
		t.Errorf("Size = %d", p.Size())
	}
	if got := p.Nth(5); got != MustParseAddr("10.3.0.5") {
		t.Errorf("Nth(5) = %v", got)
	}
	p24 := MustParsePrefix("192.150.187.0/24")
	if p24.String() != "192.150.187.0/24" {
		t.Errorf("String = %q", p24.String())
	}
	if _, err := ParsePrefix("10.0.0.0/33"); err == nil {
		t.Error("prefix length 33 accepted")
	}
	if _, err := ParsePrefix("10.0.0.0"); err == nil {
		t.Error("missing slash accepted")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55},
		Src:       MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff},
		EtherType: EtherTypeIPv4,
	}
	payload := []byte("hello farm")
	frame := append(e.Marshal(nil), payload...)
	if len(frame) != ethHeaderLen+len(payload) {
		t.Fatalf("untagged frame length %d", len(frame))
	}
	var d Ethernet
	rest, err := d.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if d != e || !bytes.Equal(rest, payload) {
		t.Fatalf("decoded %+v payload %q", d, rest)
	}
}

func TestEthernetVLANRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       BroadcastMAC,
		Src:       MAC{2, 0, 0, 0, 0, 7},
		VLAN:      18, // a Grum inmate's VLAN in Fig. 6
		Priority:  3,
		EtherType: EtherTypeARP,
	}
	frame := e.Marshal(nil)
	if len(frame) != ethTaggedHdrLen {
		t.Fatalf("tagged header length %d", len(frame))
	}
	// TPID must be 0x8100 on the wire.
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeVLAN {
		t.Fatal("missing 802.1Q TPID")
	}
	var d Ethernet
	if _, err := d.Unmarshal(frame); err != nil {
		t.Fatal(err)
	}
	if d != e {
		t.Fatalf("decoded %+v want %+v", d, e)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var d Ethernet
	if _, err := d.Unmarshal(make([]byte, 5)); err == nil {
		t.Error("short frame accepted")
	}
	// Tagged frame cut off after TPID.
	e := Ethernet{VLAN: 7, EtherType: EtherTypeIPv4}
	frame := e.Marshal(nil)
	if _, err := d.Unmarshal(frame[:15]); err == nil {
		t.Error("truncated 802.1Q tag accepted")
	}
}

func TestVLANIDMasking(t *testing.T) {
	e := Ethernet{VLAN: 0x1fff, EtherType: EtherTypeIPv4} // 13 bits set
	frame := e.Marshal(nil)
	var d Ethernet
	if _, err := d.Unmarshal(frame); err != nil {
		t.Fatal(err)
	}
	if d.VLAN != 0x0fff {
		t.Fatalf("VLAN ID not masked to 12 bits: %#x", d.VLAN)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{
		Op:       ARPRequest,
		SenderHW: MAC{2, 0, 0, 0, 0, 1},
		SenderIP: MustParseAddr("10.0.0.23"),
		TargetIP: MustParseAddr("10.0.0.1"),
	}
	b := a.Marshal(nil)
	if len(b) != arpLen {
		t.Fatalf("ARP length %d, want %d", len(b), arpLen)
	}
	var d ARP
	if err := d.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if d != a {
		t.Fatalf("decoded %+v want %+v", d, a)
	}
	if err := d.Unmarshal(b[:20]); err == nil {
		t.Error("short ARP accepted")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{
		TOS:      0,
		ID:       0x1234,
		Flags:    2, // DF
		TTL:      DefaultTTL,
		Protocol: ProtoTCP,
		Src:      MustParseAddr("10.0.0.23"),
		Dst:      MustParseAddr("192.150.187.12"),
	}
	payload := []byte("GET bot.exe HTTP/1.1")
	pkt := ip.Marshal(nil, payload)
	var d IPv4
	rest, err := d.Unmarshal(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.Protocol != ProtoTCP || d.Flags != 2 || d.ID != 0x1234 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload %q", rest)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2}
	pkt := ip.Marshal(nil, nil)
	pkt[16] ^= 0x40 // flip a bit in dst addr
	var d IPv4
	if _, err := d.Unmarshal(pkt); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestIPv4Truncated(t *testing.T) {
	var d IPv4
	if _, err := d.Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short header accepted")
	}
	b := make([]byte, 20)
	b[0] = 0x60 // IPv6 version nibble
	if _, err := d.Unmarshal(b); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	src, dst := MustParseAddr("10.0.0.23"), MustParseAddr("192.150.187.12")
	tc := TCP{
		SrcPort: 1234, DstPort: 80,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags:  FlagPSH | FlagACK,
		Window: 65535,
	}
	payload := []byte("GET bot.exe HTTP/1.1\r\n\r\n")
	seg := tc.Marshal(nil, src, dst, payload)
	var d TCP
	rest, err := d.Unmarshal(seg, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if d != tc {
		t.Fatalf("decoded %+v want %+v", d, tc)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload %q", rest)
	}
}

func TestTCPChecksumCoversPseudoHeader(t *testing.T) {
	src, dst := Addr(1), Addr(2)
	tc := TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}
	seg := tc.Marshal(nil, src, dst, nil)
	var d TCP
	// Same bytes, different claimed endpoints: checksum must fail.
	if _, err := d.Unmarshal(seg, src, dst+1); err == nil {
		t.Error("segment accepted under wrong pseudo-header")
	}
	if _, err := d.Unmarshal(seg, src, dst); err != nil {
		t.Errorf("valid segment rejected: %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := MustParseAddr("10.3.1.4"), MustParseAddr("10.0.0.23")
	u := UDP{SrcPort: 53, DstPort: 4096}
	payload := []byte{0xde, 0xad}
	seg := u.Marshal(nil, src, dst, payload)
	var d UDP
	rest, err := d.Unmarshal(seg, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 53 || d.DstPort != 4096 || int(d.Length) != UDPHeaderLen+2 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload % x", rest)
	}
	seg[9] ^= 1 // corrupt payload
	if _, err := d.Unmarshal(seg, src, dst); err == nil {
		t.Error("corrupted UDP accepted")
	}
}

func TestChecksumZero(t *testing.T) {
	// RFC 1071: checksum of data including its own valid checksum is 0.
	data := []byte{0x45, 0x00, 0x00, 0x1c, 0x12, 0x34}
	sum := Checksum(data, 0)
	full := append(append([]byte{}, data...), byte(sum>>8), byte(sum))
	if Checksum(full, 0) != 0 {
		t.Error("self-checksum not zero")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xff}, 0) != ^uint16(0xff00) {
		t.Error("odd-length checksum wrong")
	}
}

func TestPacketRoundTripTCP(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{
			Dst: MAC{2, 0, 0, 0, 0, 1}, Src: MAC{2, 0, 0, 0, 0, 2},
			VLAN: 12, EtherType: EtherTypeIPv4,
		},
		IP: &IPv4{TTL: 64, Protocol: ProtoTCP,
			Src: MustParseAddr("10.0.0.23"), Dst: MustParseAddr("192.150.187.12")},
		TCP:     &TCP{SrcPort: 1234, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 8192},
		Payload: nil,
	}
	q, err := ParseFrame(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.Eth.VLAN != 12 || q.TCP == nil || q.TCP.SrcPort != 1234 || q.TCP.Flags != FlagSYN {
		t.Fatalf("round trip %+v", q)
	}
	k, ok := q.FlowKey()
	if !ok {
		t.Fatal("no flow key")
	}
	want := FlowKey{VLAN: 12, SrcIP: p.IP.Src, DstIP: p.IP.Dst, SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	if k != want {
		t.Fatalf("flow key %+v want %+v", k, want)
	}
}

func TestPacketRoundTripARP(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{Dst: BroadcastMAC, Src: MAC{2, 0, 0, 0, 0, 9}, VLAN: 7, EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest, SenderHW: MAC{2, 0, 0, 0, 0, 9}, SenderIP: 10, TargetIP: 11},
	}
	q, err := ParseFrame(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.ARP == nil || *q.ARP != *p.ARP {
		t.Fatalf("ARP round trip %+v", q.ARP)
	}
	if _, ok := q.FlowKey(); ok {
		t.Error("ARP packet has a flow key")
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{
		Eth:     Ethernet{EtherType: EtherTypeIPv4},
		IP:      &IPv4{Src: 1, Dst: 2, TTL: 64, Protocol: ProtoTCP},
		TCP:     &TCP{SrcPort: 5, DstPort: 6, Seq: 9},
		Payload: []byte("abc"),
	}
	q := p.Clone()
	q.IP.Src = 99
	q.TCP.Seq = 1000
	q.Payload[0] = 'x'
	if p.IP.Src != 1 || p.TCP.Seq != 9 || p.Payload[0] != 'a' {
		t.Error("Clone aliases original")
	}
}

// Property: TCP Marshal/Unmarshal round-trips arbitrary headers and
// payloads under arbitrary pseudo-header endpoints.
func TestPropertyTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, src, dst uint32, payload []byte) bool {
		tc := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: win}
		seg := tc.Marshal(nil, Addr(src), Addr(dst), payload)
		var d TCP
		rest, err := d.Unmarshal(seg, Addr(src), Addr(dst))
		return err == nil && d == tc && bytes.Equal(rest, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: frame parsing never panics on arbitrary junk.
func TestPropertyParseFrameNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on % x: %v", b, r)
			}
		}()
		_, _ = ParseFrame(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a packet built from random transport fields survives a full
// frame round trip.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(vlan uint16, src, dst uint32, sp, dp uint16, payload []byte) bool {
		vlan %= MaxVLAN // may be 0 = untagged
		p := &Packet{
			Eth: Ethernet{Dst: MAC{2, 0, 0, 0, 0, 1}, Src: MAC{2, 0, 0, 0, 0, 2},
				VLAN: vlan, EtherType: EtherTypeIPv4},
			IP:      &IPv4{TTL: 64, Protocol: ProtoUDP, Src: Addr(src), Dst: Addr(dst)},
			UDP:     &UDP{SrcPort: sp, DstPort: dp},
			Payload: payload,
		}
		q, err := ParseFrame(p.Marshal())
		if err != nil {
			return false
		}
		return q.Eth.VLAN == vlan && q.IP.Src == Addr(src) && q.UDP.SrcPort == sp &&
			bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlagString(t *testing.T) {
	if got := FlagString(FlagSYN | FlagACK); got != "SYN|ACK" {
		t.Errorf("FlagString = %q", got)
	}
	if got := FlagString(0); got != "none" {
		t.Errorf("FlagString(0) = %q", got)
	}
}

func TestProtoName(t *testing.T) {
	if ProtoName(ProtoTCP) != "tcp" || ProtoName(ProtoUDP) != "udp" || ProtoName(99) != "99" {
		t.Error("ProtoName wrong")
	}
}
