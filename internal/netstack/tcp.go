package netstack

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// FlagString renders flags as e.g. "SYN|ACK" for logs and traces.
func FlagString(f uint8) string {
	var parts []string
	for _, fl := range []struct {
		bit  uint8
		name string
	}{{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"}} {
		if f&fl.bit != 0 {
			parts = append(parts, fl.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// TCP is a TCP header without options (data offset always 5). The farm's
// simulated hosts negotiate a fixed MSS, so options are unnecessary, and a
// fixed-size header keeps the gateway's in-flight sequence arithmetic
// (shim injection and stripping, Fig. 5) straightforward to audit.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Urgent           uint16
}

// TCPHeaderLen is the fixed header size used by the simulated stack.
const TCPHeaderLen = 20

// Marshal appends the header followed by payload to dst, computing the
// checksum over the pseudo-header for the given IP endpoints.
func (t *TCP) Marshal(dst []byte, src, dstIP Addr, payload []byte) []byte {
	dst = grow(dst, TCPHeaderLen+len(payload), 0)
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, t.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, t.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, t.Seq)
	dst = binary.BigEndian.AppendUint32(dst, t.Ack)
	dst = append(dst, 5<<4, t.Flags)
	dst = binary.BigEndian.AppendUint16(dst, t.Window)
	dst = binary.BigEndian.AppendUint16(dst, 0) // checksum placeholder
	dst = binary.BigEndian.AppendUint16(dst, t.Urgent)
	dst = append(dst, payload...)
	seg := dst[start:]
	sum := Checksum(seg, pseudoHeaderSum(src, dstIP, ProtoTCP, len(seg)))
	binary.BigEndian.PutUint16(seg[16:], sum)
	return dst
}

// Unmarshal decodes the header, verifies the checksum against the given IP
// endpoints, and returns the payload.
func (t *TCP) Unmarshal(b []byte, src, dst Addr) ([]byte, error) {
	if len(b) < TCPHeaderLen {
		return nil, fmt.Errorf("netstack: TCP segment too short (%d bytes)", len(b))
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return nil, fmt.Errorf("netstack: bad TCP data offset %d", off)
	}
	if Checksum(b, pseudoHeaderSum(src, dst, ProtoTCP, len(b))) != 0 {
		return nil, fmt.Errorf("netstack: TCP checksum mismatch")
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	return b[off:], nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// UDPHeaderLen is the UDP header size.
const UDPHeaderLen = 8

// Marshal appends the header followed by payload to dst with checksum.
func (u *UDP) Marshal(dst []byte, src, dstIP Addr, payload []byte) []byte {
	u.Length = uint16(UDPHeaderLen + len(payload))
	dst = grow(dst, UDPHeaderLen+len(payload), 0)
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, u.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, u.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, u.Length)
	dst = binary.BigEndian.AppendUint16(dst, 0)
	dst = append(dst, payload...)
	seg := dst[start:]
	sum := Checksum(seg, pseudoHeaderSum(src, dstIP, ProtoUDP, len(seg)))
	if sum == 0 {
		sum = 0xffff // RFC 768: zero checksum means "not computed"
	}
	binary.BigEndian.PutUint16(seg[6:], sum)
	return dst
}

// Unmarshal decodes the header, verifies checksum and length, and returns
// the payload.
func (u *UDP) Unmarshal(b []byte, src, dst Addr) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("netstack: UDP datagram too short (%d bytes)", len(b))
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	if int(u.Length) < UDPHeaderLen || int(u.Length) > len(b) {
		return nil, fmt.Errorf("netstack: UDP length %d inconsistent with segment %d", u.Length, len(b))
	}
	seg := b[:u.Length]
	if binary.BigEndian.Uint16(b[6:8]) != 0 {
		if Checksum(seg, pseudoHeaderSum(src, dst, ProtoUDP, len(seg))) != 0 {
			return nil, fmt.Errorf("netstack: UDP checksum mismatch")
		}
	}
	return seg[UDPHeaderLen:], nil
}
