package netstack

import (
	"encoding/binary"
	"fmt"
)

// EtherType values understood by the farm.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100 // 802.1Q TPID
)

// NoVLAN marks an untagged frame. Valid 802.1Q VLAN IDs are 1-4094.
const NoVLAN uint16 = 0

// MaxVLAN is the largest assignable 802.1Q VLAN ID (4095 is reserved).
const MaxVLAN uint16 = 4094

// Ethernet is an Ethernet II header with an optional single 802.1Q tag.
// GQ enforces inmate isolation at the link layer: each inmate sends and
// receives traffic on a unique VLAN ID, so the tag is first-class here.
type Ethernet struct {
	Dst, Src  MAC
	VLAN      uint16 // NoVLAN when untagged; otherwise the 12-bit VLAN ID
	Priority  uint8  // 802.1p PCP bits, usually zero
	EtherType uint16
}

// EthHeaderLen is the size of an untagged Ethernet II header; an 802.1Q tag
// adds VLANTagLen.
const (
	EthHeaderLen = ethHeaderLen
	VLANTagLen   = ethTaggedHdrLen - ethHeaderLen
)

const (
	ethHeaderLen     = 14
	ethTaggedHdrLen  = 18
	vlanIDMask       = 0x0fff
	vlanPriorityMask = 0xe000
)

// HeaderLen reports the encoded header size, which depends on tagging.
func (e *Ethernet) HeaderLen() int {
	if e.VLAN != NoVLAN {
		return ethTaggedHdrLen
	}
	return ethHeaderLen
}

// Marshal appends the encoded header to dst and returns the result.
func (e *Ethernet) Marshal(dst []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	if e.VLAN != NoVLAN {
		tci := uint16(e.Priority)<<13 | e.VLAN&vlanIDMask
		dst = binary.BigEndian.AppendUint16(dst, EtherTypeVLAN)
		dst = binary.BigEndian.AppendUint16(dst, tci)
	}
	return binary.BigEndian.AppendUint16(dst, e.EtherType)
}

// Unmarshal decodes the header from b and returns the payload.
func (e *Ethernet) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < ethHeaderLen {
		return nil, fmt.Errorf("netstack: ethernet frame too short (%d bytes)", len(b))
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	et := binary.BigEndian.Uint16(b[12:14])
	if et == EtherTypeVLAN {
		if len(b) < ethTaggedHdrLen {
			return nil, fmt.Errorf("netstack: truncated 802.1Q tag")
		}
		tci := binary.BigEndian.Uint16(b[14:16])
		e.VLAN = tci & vlanIDMask
		e.Priority = uint8(tci >> 13)
		e.EtherType = binary.BigEndian.Uint16(b[16:18])
		return b[ethTaggedHdrLen:], nil
	}
	e.VLAN = NoVLAN
	e.Priority = 0
	e.EtherType = et
	return b[ethHeaderLen:], nil
}

// ARP operations.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// MaxARPPending bounds the frames any stack in the farm (hosts, the gateway's
// VLAN side, its outside interface) parks for one neighbour while ARP
// resolves it — Linux's unres_qlen idea. Without it a sender blasting an
// unresolvable on-link address parks every frame for the whole retry
// window; beyond the bound the newest frame is dropped and counted.
const MaxARPPending = 64

// ARP is an IPv4-over-Ethernet ARP packet (RFC 826).
type ARP struct {
	Op                 uint16
	SenderHW, TargetHW MAC
	SenderIP, TargetIP Addr
}

const arpLen = 28

// NewARPRequest builds the broadcast asking who has target, sent by (hw, ip)
// on vlan (NoVLAN: untagged). A gratuitous announcement asks for ip itself.
func NewARPRequest(vlan uint16, hw MAC, ip, target Addr) *Packet {
	return &Packet{
		Eth: Ethernet{Dst: BroadcastMAC, Src: hw, VLAN: vlan, EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest, SenderHW: hw, SenderIP: ip, TargetIP: target},
	}
}

// NewARPReply builds the answer to request req: ip is at hw.
func NewARPReply(vlan uint16, hw MAC, ip Addr, req *ARP) *Packet {
	return &Packet{
		Eth: Ethernet{Dst: req.SenderHW, Src: hw, VLAN: vlan, EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPReply, SenderHW: hw, SenderIP: ip, TargetHW: req.SenderHW, TargetIP: req.SenderIP},
	}
}

// Marshal appends the 28-byte encoding to dst.
func (a *ARP) Marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, 1)             // htype: Ethernet
	dst = binary.BigEndian.AppendUint16(dst, EtherTypeIPv4) // ptype
	dst = append(dst, 6, 4)                                 // hlen, plen
	dst = binary.BigEndian.AppendUint16(dst, a.Op)
	dst = append(dst, a.SenderHW[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.SenderIP))
	dst = append(dst, a.TargetHW[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.TargetIP))
	return dst
}

// Unmarshal decodes an ARP packet.
func (a *ARP) Unmarshal(b []byte) error {
	if len(b) < arpLen {
		return fmt.Errorf("netstack: ARP packet too short (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || binary.BigEndian.Uint16(b[2:4]) != EtherTypeIPv4 {
		return fmt.Errorf("netstack: unsupported ARP hardware/protocol type")
	}
	if b[4] != 6 || b[5] != 4 {
		return fmt.Errorf("netstack: unsupported ARP address lengths")
	}
	a.Op = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderHW[:], b[8:14])
	a.SenderIP = AddrFromSlice(b[14:18])
	copy(a.TargetHW[:], b[18:24])
	a.TargetIP = AddrFromSlice(b[24:28])
	return nil
}
