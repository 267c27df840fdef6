// Package netstack implements the wire formats GQ's machinery parses and
// rewrites: Ethernet with 802.1Q VLAN tags, ARP, IPv4, TCP, and UDP. Layers
// follow the gopacket convention of paired Marshal/Unmarshal with explicit
// byte layouts, so the gateway operates on the same representations a
// hardware deployment would see.
package netstack

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether m is the all-zero address.
func (m MAC) IsZero() bool { return m == MAC{} }

// Addr is an IPv4 address in host byte order, chosen over a byte array so
// address pools and subnet arithmetic stay simple.
type Addr uint32

// AddrFrom4 assembles an Addr from dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFromSlice decodes a 4-byte big-endian slice.
func AddrFromSlice(b []byte) Addr {
	return Addr(binary.BigEndian.Uint32(b))
}

// ParseAddr parses dotted-quad notation. It returns an error for anything
// that is not exactly four in-range octets.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netstack: invalid IPv4 address %q", s)
	}
	var a Addr
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netstack: invalid IPv4 address %q", s)
		}
		a = a<<8 | Addr(n)
	}
	return a, nil
}

// MustParseAddr is ParseAddr for constant initialisation; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Put writes the address in network byte order into b.
func (a Addr) Put(b []byte) { binary.BigEndian.PutUint32(b, uint32(a)) }

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// IsBroadcast reports whether the address is 255.255.255.255.
func (a Addr) IsBroadcast() bool { return a == 0xffffffff }

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Base Addr
	Bits int
}

// ParsePrefix parses "a.b.c.d/n" notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netstack: invalid prefix %q", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netstack: invalid prefix length in %q", s)
	}
	return Prefix{Base: a.Mask(bits), Bits: bits}, nil
}

// MustParsePrefix is ParsePrefix for constant initialisation.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask clears the host bits of a for a prefix of the given length.
func (a Addr) Mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a &^ (1<<(32-uint(bits)) - 1)
}

// Contains reports whether addr falls within the prefix.
func (p Prefix) Contains(addr Addr) bool { return addr.Mask(p.Bits) == p.Base }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() int {
	return 1 << (32 - uint(p.Bits))
}

// Nth returns the i'th address in the prefix (0 = network base).
func (p Prefix) Nth(i int) Addr { return p.Base + Addr(i) }

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Base, p.Bits) }

// Protocol numbers used by the simulated stack.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// ProtoName names a protocol number for reports and logs.
func ProtoName(p uint8) string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return strconv.Itoa(int(p))
	}
}

// FlowKey identifies a transport flow within an inmate network. The VLAN ID
// is part of the key because GQ isolates each inmate on its own VLAN and the
// RFC 1918 internal ranges may repeat across subfarms.
type FlowKey struct {
	VLAN             uint16
	SrcIP, DstIP     Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders "vlan src:sport -> dst:dport/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("vlan%d %s:%d -> %s:%d/%s",
		k.VLAN, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, ProtoName(k.Proto))
}
