package netstack

import (
	"encoding/binary"
	"fmt"
)

// Packet is a fully parsed frame: the Ethernet header plus whichever upper
// layers were present. The gateway mutates parsed packets (NAT rewrites,
// redirections, sequence bumping) and re-serialises them with Marshal.
//
// A parsed packet (ParseFrame, ParseBuf.Parse) keeps a reference to the
// original wire buffer. As long as the packet's shape is unchanged — same
// layer structure, same payload bytes — Marshal patches the mutated header
// fields back into that buffer in place (with incremental checksum
// updates) instead of re-serialising, adding or stripping the VLAN tag
// there too.
// Payload bytes reached through Payload are read-only; replacing the
// Payload slice is allowed and simply falls back to the slow path. See
// DESIGN.md "Datapath buffer ownership".
type Packet struct {
	Eth     Ethernet
	ARP     *ARP
	IP      *IPv4
	TCP     *TCP
	UDP     *UDP
	Payload []byte // transport payload (TCP/UDP) or raw bytes for other protocols

	// Fast-path state: the original frame and its layer offsets.
	wire   []byte
	l3Off  int // ARP/IP header start
	l4Off  int // TCP/UDP header start; 0 when no transport layer was parsed
	payOff int // payload start within wire
	payLen int // payload length at parse time
}

// ParseBuf is the storage one parse fills: a Packet and every header
// struct it might point at, so a parse (or a clone) costs at most this one
// allocation no matter which layers are present — and none at all for a
// receiver that keeps a ParseBuf of its own. Unused members stay zero and
// unreferenced.
type ParseBuf struct {
	p   Packet
	arp ARP
	ip  IPv4
	tcp TCP
	udp UDP
}

// ParseFrame decodes a frame into a freshly allocated Packet the caller may
// keep. See ParseBuf.Parse.
func ParseFrame(b []byte) (*Packet, error) { return new(ParseBuf).Parse(b) }

// Parse decodes a frame into its layers. Unknown EtherTypes and IP
// protocols leave the remaining bytes in Payload rather than failing, so
// taps and bridges can still forward what they do not understand.
//
// The frame buffer is retained for Marshal's zero-copy fast path: the
// caller relinquishes it to the packet. The packet lives in a: it is valid
// until the next Parse into a, so a receive path that parses every frame
// into one ParseBuf hands out packets that are good until it returns, and
// whoever keeps one longer parses a copy of its bytes:
// ParseFrame(p.AppendWire(nil)). A ParseBuf belongs to one goroutine
// and must not be parsed into again while a packet from it is still in use
// further up the stack.
func (a *ParseBuf) Parse(b []byte) (*Packet, error) {
	a.p = Packet{}
	p := &a.p
	rest, err := p.Eth.Unmarshal(b)
	if err != nil {
		return nil, err
	}
	// Measured, not derived from Eth.VLAN: a priority tag (VID 0) occupies
	// the wire but parses as NoVLAN, and the offsets must stay truthful
	// for the in-place paths (Marshal then strips it like any other tag).
	p.l3Off = len(b) - len(rest)
	switch p.Eth.EtherType {
	case EtherTypeARP:
		p.ARP = &a.arp
		if err := p.ARP.Unmarshal(rest); err != nil {
			return nil, err
		}
	case EtherTypeIPv4:
		p.IP = &a.ip
		rest, err = p.IP.Unmarshal(rest)
		if err != nil {
			return nil, err
		}
		ihl := int(b[p.l3Off]&0x0f) * 4
		switch p.IP.Protocol {
		case ProtoTCP:
			p.TCP = &a.tcp
			p.Payload, err = p.TCP.Unmarshal(rest, p.IP.Src, p.IP.Dst)
			if err != nil {
				return nil, err
			}
			p.l4Off = p.l3Off + ihl
			p.payOff = p.l4Off + int(b[p.l4Off+12]>>4)*4
		case ProtoUDP:
			p.UDP = &a.udp
			p.Payload, err = p.UDP.Unmarshal(rest, p.IP.Src, p.IP.Dst)
			if err != nil {
				return nil, err
			}
			p.l4Off = p.l3Off + ihl
			p.payOff = p.l4Off + UDPHeaderLen
		default:
			p.Payload = rest
			p.payOff = p.l3Off + ihl
		}
	default:
		p.Payload = rest
		p.payOff = p.l3Off
	}
	p.payLen = len(p.Payload)
	p.wire = b
	return p, nil
}

// payloadAliasesWire reports whether Payload still is the parse-time byte
// range of the wire buffer (same length, same backing position).
func (p *Packet) payloadAliasesWire() bool {
	if len(p.Payload) != p.payLen {
		return false
	}
	return p.payLen == 0 || &p.Payload[0] == &p.wire[p.payOff]
}

// syncWire patches mutated header fields back into the original frame
// buffer, maintaining checksums incrementally. A VLAN tag added or removed
// since the parse is a shape change made in that buffer too (retagWire) —
// no checksum covers the tag. It reports false — leaving the fast path
// unusable — when the packet changed shape any other way: layers
// added/dropped, or the payload replaced.
func (p *Packet) syncWire() bool {
	if p.wire == nil {
		return false
	}
	tagged := p.Eth.VLAN != NoVLAN
	if tagged != (p.l3Off == ethTaggedHdrLen) && !p.retagWire(tagged) {
		return false
	}
	w := p.wire
	if binary.BigEndian.Uint16(w[p.l3Off-2:]) != p.Eth.EtherType {
		return false // ARP <-> IP reshapes need the slow path
	}
	switch {
	case p.ARP != nil:
		if p.IP != nil || p.Eth.EtherType != EtherTypeARP {
			return false
		}
		var tmp [arpLen]byte
		copy(w[p.l3Off:p.l3Off+arpLen], p.ARP.Marshal(tmp[:0]))
	case p.IP != nil:
		if p.Eth.EtherType != EtherTypeIPv4 || !p.syncIP(w) {
			return false
		}
	default:
		if !p.payloadAliasesWire() {
			return false
		}
	}
	copy(w[0:6], p.Eth.Dst[:])
	copy(w[6:12], p.Eth.Src[:])
	if tagged {
		tci := uint16(p.Eth.Priority)<<13 | p.Eth.VLAN&vlanIDMask
		binary.BigEndian.PutUint16(w[14:16], tci)
	}
	return true
}

// retagWire inserts (tag) or strips the 802.1Q tag in the wire buffer and
// moves the layer offsets and the Payload alias along with the bytes. An
// insert into a buffer without VLANTagLen bytes of tail room moves the
// frame to a fresh one; either way the bytes every checksum covers are
// untouched, so the incremental path continues.
func (p *Packet) retagWire(tag bool) bool {
	if !p.payloadAliasesWire() {
		return false
	}
	shift := VLANTagLen
	if tag {
		p.wire = InsertVLAN(p.wire, 0) // syncWire fills in the TCI
	} else {
		p.wire = StripVLAN(p.wire)
		shift = -VLANTagLen
	}
	p.l3Off += shift
	if p.l4Off != 0 {
		p.l4Off += shift
	}
	p.payOff += shift
	if p.Payload != nil {
		p.Payload = p.wire[p.payOff : p.payOff+p.payLen : p.payOff+p.payLen]
	}
	return true
}

// syncIP patches the IP header (full 20-byte checksum recompute — it is
// cheap) and the transport header (incremental checksum) in place.
func (p *Packet) syncIP(w []byte) bool {
	hdr := w[p.l3Off:]
	switch {
	case p.TCP != nil:
		if p.l4Off == 0 || hdr[9] != ProtoTCP || p.UDP != nil {
			return false
		}
	case p.UDP != nil:
		if p.l4Off == 0 || hdr[9] != ProtoUDP {
			return false
		}
	default:
		if p.l4Off != 0 {
			return false
		}
	}
	if !p.payloadAliasesWire() {
		return false
	}
	ip := p.IP
	// Pseudo-header delta for the transport checksum.
	oldSrc := AddrFromSlice(hdr[12:16])
	oldDst := AddrFromSlice(hdr[16:20])
	var phDelta uint32
	if oldSrc != ip.Src {
		phDelta += csumDelta32(uint32(oldSrc), uint32(ip.Src))
	}
	if oldDst != ip.Dst {
		phDelta += csumDelta32(uint32(oldDst), uint32(ip.Dst))
	}
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	hdr[8] = ip.TTL
	hdr[9] = ip.Protocol
	binary.BigEndian.PutUint32(hdr[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(ip.Dst))
	// Length is structural (payload unchanged): wire stays authoritative.
	ip.Length = binary.BigEndian.Uint16(hdr[2:4])
	ihl := int(hdr[0]&0x0f) * 4
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	binary.BigEndian.PutUint16(hdr[10:12], Checksum(hdr[:ihl], 0))
	switch {
	case p.TCP != nil:
		p.syncTCP(w[p.l4Off:], phDelta)
	case p.UDP != nil:
		p.syncUDP(w[p.l4Off:], phDelta)
	}
	return true
}

func (p *Packet) syncTCP(seg []byte, delta uint32) {
	t := p.TCP
	patch16 := func(off int, v uint16) {
		old := binary.BigEndian.Uint16(seg[off:])
		if old != v {
			delta += csumDelta16(old, v)
			binary.BigEndian.PutUint16(seg[off:], v)
		}
	}
	patch32 := func(off int, v uint32) {
		old := binary.BigEndian.Uint32(seg[off:])
		if old != v {
			delta += csumDelta32(old, v)
			binary.BigEndian.PutUint32(seg[off:], v)
		}
	}
	patch16(0, t.SrcPort)
	patch16(2, t.DstPort)
	patch32(4, t.Seq)
	patch32(8, t.Ack)
	if seg[13] != t.Flags {
		old := uint16(seg[12])<<8 | uint16(seg[13])
		seg[13] = t.Flags
		delta += csumDelta16(old, uint16(seg[12])<<8|uint16(t.Flags))
	}
	patch16(14, t.Window)
	patch16(18, t.Urgent)
	csumApply(seg[16:18], delta)
}

func (p *Packet) syncUDP(seg []byte, delta uint32) {
	u := p.UDP
	hasSum := binary.BigEndian.Uint16(seg[6:8]) != 0
	patch16 := func(off int, v uint16) {
		old := binary.BigEndian.Uint16(seg[off:])
		if old != v {
			delta += csumDelta16(old, v)
			binary.BigEndian.PutUint16(seg[off:], v)
		}
	}
	patch16(0, u.SrcPort)
	patch16(2, u.DstPort)
	u.Length = binary.BigEndian.Uint16(seg[4:6])
	if !hasSum {
		return // RFC 768: zero checksum means "not computed"; keep it so
	}
	csumApply(seg[6:8], delta)
	if binary.BigEndian.Uint16(seg[6:8]) == 0 {
		binary.BigEndian.PutUint16(seg[6:8], 0xffff)
	}
}

// Canonicalize makes the next Marshal emit exactly what the header structs
// describe. A parsed packet normally marshals by patching its wire buffer,
// which carries along what the structs do not model: IP and TCP options,
// reserved TCP header bits, bytes behind the datagram. When the wire holds
// any of those, Canonicalize detaches it and Marshal re-serialises from the
// structs; a plain frame — every frame a farm host emits — keeps the
// in-place path.
func (p *Packet) Canonicalize() {
	if p.wire == nil || p.IP == nil {
		return
	}
	hdr := p.wire[p.l3Off:]
	ipLen := int(binary.BigEndian.Uint16(hdr[2:4]))
	plain := hdr[0] == 0x45 && ipLen == len(hdr)
	switch {
	case p.TCP != nil:
		plain = plain && p.wire[p.l4Off+12] == TCPHeaderLen/4<<4
	case p.UDP != nil:
		plain = plain && int(p.UDP.Length) == ipLen-IPv4HeaderLen
	}
	if !plain {
		p.wire = nil
	}
}

// Marshal re-serialises the packet, recomputing lengths and checksums.
// Fast path: a parsed packet whose shape is unchanged returns its
// patched original buffer without allocating. The result then aliases the
// packet's buffer — marshalling is the packet's terminal use, after which
// neither may be mutated (netsim.Port.Send copies; Port.SendOwned takes
// the buffer as-is).
func (p *Packet) Marshal() []byte {
	if p.syncWire() {
		return p.wire
	}
	return p.marshalSlow(nil)
}

// MarshalTo is Marshal for a send that takes the frame it is handed: a
// parsed packet whose shape is unchanged patches and returns its own buffer,
// as Marshal does, and take is not called; any other packet is serialised
// into the one buffer take returns, asked for the frame's size plus the tail
// room Marshal leaves behind an untagged frame.
func (p *Packet) MarshalTo(take func(size int) []byte) []byte {
	if p.syncWire() {
		return p.wire
	}
	n, tailRoom := p.frameLen()
	return p.marshalSlow(take(n + tailRoom))
}

// AppendWire appends the packet's wire encoding to dst, using the fast
// path when available. Unlike Marshal the result never aliases the
// packet's buffer, so dst may be a reused scratch buffer.
func (p *Packet) AppendWire(dst []byte) []byte {
	if p.syncWire() {
		return append(dst, p.wire...)
	}
	return p.marshalSlow(dst)
}

// marshalSlow serialises the packet from its structs into one buffer: buf
// if it has the room, else a fresh one of exactly the frame's size (plus,
// for an untagged frame, the tail room an access port's tag will need).
func (p *Packet) marshalSlow(buf []byte) []byte {
	n, tailRoom := p.frameLen()
	buf = p.Eth.Marshal(grow(buf, n, tailRoom))
	switch {
	case p.ARP != nil:
		return p.ARP.Marshal(buf)
	case p.IP != nil:
		return p.appendIP(buf)
	default:
		return append(buf, p.Payload...)
	}
}

// frameLen is the encoded size of the frame, and the tail room behind it an
// access port's tag will need when it is untagged.
func (p *Packet) frameLen() (n, tailRoom int) {
	n = p.Eth.HeaderLen()
	switch {
	case p.ARP != nil:
		n += arpLen
	case p.IP != nil:
		n += p.ipLen()
	default:
		n += len(p.Payload)
	}
	if p.Eth.VLAN == NoVLAN {
		tailRoom = VLANTagLen
	}
	return n, tailRoom
}

// ipLen is the encoded size of the IP datagram the packet carries.
func (p *Packet) ipLen() int {
	n := IPv4HeaderLen + len(p.Payload)
	switch {
	case p.TCP != nil:
		n += TCPHeaderLen
	case p.UDP != nil:
		n += UDPHeaderLen
	}
	return n
}

// appendIP appends the IP datagram (IP header, transport header, payload)
// to buf: the transport layer is written behind room left for the IP
// header, which is completed once the datagram length is known.
func (p *Packet) appendIP(buf []byte) []byte {
	buf = grow(buf, p.ipLen(), 0)
	off := len(buf)
	buf = buf[:off+IPv4HeaderLen]
	switch {
	case p.TCP != nil:
		p.IP.Protocol = ProtoTCP
		buf = p.TCP.Marshal(buf, p.IP.Src, p.IP.Dst, p.Payload)
	case p.UDP != nil:
		p.IP.Protocol = ProtoUDP
		buf = p.UDP.Marshal(buf, p.IP.Src, p.IP.Dst, p.Payload)
	default:
		buf = append(buf, p.Payload...)
	}
	p.IP.PutHeader(buf[off:], len(buf)-off-IPv4HeaderLen)
	return buf
}

// grow returns dst with room for n more bytes, moving it at most once, to a
// buffer of exactly that size plus spare bytes of capacity behind it.
func grow(dst []byte, n, spare int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n+spare), dst...)
}

// FlowKey extracts the transport five-tuple plus VLAN. ok is false for
// non-TCP/UDP packets.
func (p *Packet) FlowKey() (FlowKey, bool) {
	if p.IP == nil {
		return FlowKey{}, false
	}
	k := FlowKey{VLAN: p.Eth.VLAN, SrcIP: p.IP.Src, DstIP: p.IP.Dst, Proto: p.IP.Protocol}
	switch {
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return FlowKey{}, false
	}
	return k, true
}

// String summarises the packet for logs.
func (p *Packet) String() string {
	switch {
	case p.ARP != nil:
		op := "request"
		if p.ARP.Op == ARPReply {
			op = "reply"
		}
		return fmt.Sprintf("ARP %s who-has %s tell %s (vlan %d)", op, p.ARP.TargetIP, p.ARP.SenderIP, p.Eth.VLAN)
	case p.TCP != nil:
		return fmt.Sprintf("TCP %s:%d > %s:%d [%s] seq=%d ack=%d len=%d (vlan %d)",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			FlagString(p.TCP.Flags), p.TCP.Seq, p.TCP.Ack, len(p.Payload), p.Eth.VLAN)
	case p.UDP != nil:
		return fmt.Sprintf("UDP %s:%d > %s:%d len=%d (vlan %d)",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(p.Payload), p.Eth.VLAN)
	case p.IP != nil:
		return fmt.Sprintf("IP %s > %s proto=%d len=%d (vlan %d)",
			p.IP.Src, p.IP.Dst, p.IP.Protocol, len(p.Payload), p.Eth.VLAN)
	default:
		return fmt.Sprintf("ETH %s > %s type=%#04x len=%d (vlan %d)",
			p.Eth.Src, p.Eth.Dst, p.Eth.EtherType, len(p.Payload), p.Eth.VLAN)
	}
}
