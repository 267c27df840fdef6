package netstack

import (
	"encoding/binary"
	"fmt"
)

// ProtoGRE is the IP protocol number for GRE (RFC 2784).
const ProtoGRE = 47

// GREHeaderLen is the basic GRE header size (no optional fields).
const GREHeaderLen = 4

// GREEncap wraps an inner IPv4 packet (header + payload bytes) in a basic
// GRE header. GQ's §7.2 growth path tunnels additional routable address
// space from other networks over GRE.
func GREEncap(inner []byte) []byte {
	out := make([]byte, 0, GREHeaderLen+len(inner))
	out = binary.BigEndian.AppendUint16(out, 0) // flags + version 0
	out = binary.BigEndian.AppendUint16(out, EtherTypeIPv4)
	return append(out, inner...)
}

// GREDecap validates the header and returns the inner packet bytes.
func GREDecap(b []byte) ([]byte, error) {
	if len(b) < GREHeaderLen {
		return nil, fmt.Errorf("netstack: GRE header truncated (%d bytes)", len(b))
	}
	if flags := binary.BigEndian.Uint16(b[0:2]); flags != 0 {
		return nil, fmt.Errorf("netstack: unsupported GRE flags %#04x", flags)
	}
	if proto := binary.BigEndian.Uint16(b[2:4]); proto != EtherTypeIPv4 {
		return nil, fmt.Errorf("netstack: unsupported GRE payload protocol %#04x", proto)
	}
	return b[GREHeaderLen:], nil
}

// MarshalIPPacket serialises an IP packet (IP + transport layers of p)
// without the Ethernet header — the GRE inner representation.
func MarshalIPPacket(p *Packet) []byte {
	if p.IP == nil {
		return nil
	}
	return p.appendIP(nil)
}

// ParseIPPacket decodes a bare IP packet (no Ethernet) into a freshly
// allocated Packet with a zeroed Ethernet header — fresh because GRE
// decapsulation runs while the outer packet is still live in the receive
// path's ParseBuf.
func ParseIPPacket(b []byte) (*Packet, error) {
	p := &Packet{Eth: Ethernet{EtherType: EtherTypeIPv4}}
	p.IP = &IPv4{}
	rest, err := p.IP.Unmarshal(b)
	if err != nil {
		return nil, err
	}
	switch p.IP.Protocol {
	case ProtoTCP:
		p.TCP = &TCP{}
		p.Payload, err = p.TCP.Unmarshal(rest, p.IP.Src, p.IP.Dst)
	case ProtoUDP:
		p.UDP = &UDP{}
		p.Payload, err = p.UDP.Unmarshal(rest, p.IP.Src, p.IP.Dst)
	default:
		p.Payload = rest
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}
