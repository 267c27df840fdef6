package netstack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// IPv4 is an IPv4 header without options (IHL always 5). GQ's gateway
// rewrites source and destination addresses in flight (NAT, redirection):
// on a parsed frame Packet.Marshal and the Patch* mutators fix the header
// and transport checksums incrementally (RFC 1624), and only a packet built
// from structs, or one whose payload was replaced, is summed in full.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src, Dst Addr
	// Length is the total datagram length. It is filled in by Marshal from
	// the payload size and exposed for inspection after Unmarshal.
	Length uint16
}

// IPv4HeaderLen is the fixed header size used by the simulated stack.
const IPv4HeaderLen = 20

// DefaultTTL is the TTL hosts use for originated datagrams.
const DefaultTTL = 64

// PutHeader writes the header, with length and checksum, into the first
// IPv4HeaderLen bytes of hdr for a payload of payloadLen bytes. It is how
// a datagram is completed in a buffer that already holds its payload
// behind room reserved for the header.
func (ip *IPv4) PutHeader(hdr []byte, payloadLen int) {
	hdr = hdr[:IPv4HeaderLen]
	ip.Length = uint16(IPv4HeaderLen + payloadLen)
	hdr[0], hdr[1] = 0x45, ip.TOS
	binary.BigEndian.PutUint16(hdr[2:], ip.Length)
	binary.BigEndian.PutUint16(hdr[4:], ip.ID)
	binary.BigEndian.PutUint16(hdr[6:], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	hdr[8], hdr[9] = ip.TTL, ip.Protocol
	hdr[10], hdr[11] = 0, 0 // checksum placeholder
	binary.BigEndian.PutUint32(hdr[12:], uint32(ip.Src))
	binary.BigEndian.PutUint32(hdr[16:], uint32(ip.Dst))
	binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr, 0))
}

// Unmarshal decodes the header from b, verifies the checksum, and returns
// the payload (trimmed to the header's declared length).
func (ip *IPv4) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, fmt.Errorf("netstack: IPv4 header too short (%d bytes)", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("netstack: IP version %d, want 4", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("netstack: bad IHL %d", ihl)
	}
	if Checksum(b[:ihl], 0) != 0 {
		return nil, fmt.Errorf("netstack: IPv4 header checksum mismatch")
	}
	ip.TOS = b[1]
	ip.Length = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Src = AddrFromSlice(b[12:16])
	ip.Dst = AddrFromSlice(b[16:20])
	if int(ip.Length) < ihl || int(ip.Length) > len(b) {
		return nil, fmt.Errorf("netstack: IPv4 length %d inconsistent with frame %d", ip.Length, len(b))
	}
	return b[ihl:ip.Length], nil
}

// Checksum computes the Internet checksum (RFC 1071) over b seeded with an
// initial partial sum. The result is the ones-complement value ready to be
// stored; a checksum over data that already includes a valid checksum field
// yields zero.
//
// The ones-complement sum of 16-bit words equals the folded ones-complement
// sum of wider words over the same bytes, and it commutes with swapping the
// bytes of every word (RFC 1071 §2(B)). So the kernel adds little-endian
// 8-byte words with carry, a plain load each: 64 bytes per iteration, then
// at most one 32-, one 16- and one 8-byte step, and the last 4, 2 and 1
// bytes shifted into one word. The seed goes in byte-swapped and the folded
// sum comes out swapped back.
func Checksum(b []byte, initial uint32) uint16 {
	sum, carry := uint64(bits.ReverseBytes32(initial)), uint64(0)
	for len(b) >= 64 {
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:32]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[32:40]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[40:48]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[48:56]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[56:64]), carry)
		b = b[64:]
	}
	if len(b) >= 32 {
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:32]), carry)
		b = b[32:]
	}
	if len(b) >= 16 {
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:16]), carry)
		b = b[16:]
	}
	if len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b), carry)
		b = b[8:]
	}
	if len(b) > 0 {
		// Fewer than 8 bytes left. Each chunk starts at an even offset, and
		// a 16-bit lane folds the same at any of the word's four positions,
		// so each chunk has a fixed lane; an odd final byte is the low byte
		// of its lane, zero-padded as RFC 1071 requires.
		var w uint64
		if len(b) >= 4 {
			w = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		}
		if len(b) >= 2 {
			w |= uint64(binary.LittleEndian.Uint16(b)) << 32
			b = b[2:]
		}
		if len(b) > 0 {
			w |= uint64(b[0]) << 48
		}
		sum, carry = bits.Add64(sum, w, carry)
	}
	// End-around carry: a second carry can only come out of an all-ones
	// sum, which wraps to zero, so the plain add cannot overflow.
	sum, carry = bits.Add64(sum, 0, carry)
	sum += carry
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^bits.ReverseBytes16(uint16(sum))
}

// pseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header.
func pseudoHeaderSum(src, dst Addr, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(src)>>16 + uint32(src)&0xffff
	sum += uint32(dst)>>16 + uint32(dst)&0xffff
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}
