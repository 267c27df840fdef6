package netstack

import "encoding/binary"

// In-place frame mutators: the gateway's fast path patches raw wire bytes
// (VLAN retag, MAC rewrite, address NAT, sequence bumps) instead of
// parse/clone/marshal round-trips. Checksums are maintained incrementally
// per RFC 1624 (HC' = ~(~HC + ~m + m')), so a patch costs a handful of
// adds regardless of payload size.

// csumDelta16 returns the one's-complement delta for replacing old with new
// in checksummed data. Accumulate deltas from several fields and apply the
// total once with csumApply.
func csumDelta16(old, new uint16) uint32 {
	return uint32(^old) + uint32(new)
}

// csumDelta32 is csumDelta16 over a 32-bit field (two checksum words).
func csumDelta32(old, new uint32) uint32 {
	return csumDelta16(uint16(old>>16), uint16(new>>16)) +
		csumDelta16(uint16(old), uint16(new))
}

// csumApply folds an accumulated delta into the checksum stored at
// field[0:2] (RFC 1624 eqn. 3).
func csumApply(field []byte, delta uint32) {
	if delta == 0 {
		return
	}
	s := uint32(^binary.BigEndian.Uint16(field)) & 0xffff
	s += delta
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	binary.BigEndian.PutUint16(field, ^uint16(s))
}

// RetagVLAN rewrites the 802.1Q VLAN ID of a tagged frame in place,
// preserving the PCP/DEI bits. It returns false (frame untouched) when the
// frame is untagged, truncated, or vlan is not a valid ID: retagging an
// untagged frame changes the frame length and needs the slow path.
func RetagVLAN(frame []byte, vlan uint16) bool {
	if len(frame) < ethTaggedHdrLen || vlan == NoVLAN || vlan > MaxVLAN ||
		binary.BigEndian.Uint16(frame[12:14]) != EtherTypeVLAN {
		return false
	}
	tci := binary.BigEndian.Uint16(frame[14:16])
	binary.BigEndian.PutUint16(frame[14:16], tci&^vlanIDMask|vlan)
	return true
}

// InsertVLAN turns an untagged frame (at least EthHeaderLen bytes) into a
// tagged one carrying tci. Given VLANTagLen bytes of spare capacity behind
// the frame — the tail room its originator reserved, see DESIGN.md
// "Datapath buffer ownership" — the bytes behind the MAC addresses shift
// back in place and the result aliases frame; otherwise the tagged frame
// is assembled in a fresh buffer and frame is left untouched. Only the
// owner of the buffer may call it: the spare capacity is overwritten.
func InsertVLAN(frame []byte, tci uint16) []byte {
	n := len(frame)
	var out []byte
	if cap(frame)-n >= VLANTagLen {
		out = frame[:n+VLANTagLen]
	} else {
		out = make([]byte, n+VLANTagLen)
		copy(out, frame[:12])
	}
	copy(out[12+VLANTagLen:], frame[12:n])
	binary.BigEndian.PutUint16(out[12:], EtherTypeVLAN)
	binary.BigEndian.PutUint16(out[14:], tci)
	return out
}

// StripVLAN removes the 802.1Q tag of a tagged frame in place: the bytes
// behind the tag shift forward over it, which hands the four bytes back as
// tail room for the next InsertVLAN on the frame's way.
func StripVLAN(frame []byte) []byte {
	n := copy(frame[12:], frame[12+VLANTagLen:])
	return frame[:12+n]
}

// SetEthDst rewrites the destination MAC in place.
func SetEthDst(frame []byte, mac MAC) bool {
	if len(frame) < ethHeaderLen {
		return false
	}
	copy(frame[0:6], mac[:])
	return true
}

// ipLayout locates the IPv4 header of a frame. ok is false for non-IPv4 or
// truncated frames.
func ipLayout(frame []byte) (l3, ihl int, ok bool) {
	if len(frame) < ethHeaderLen {
		return 0, 0, false
	}
	l3 = ethHeaderLen
	et := binary.BigEndian.Uint16(frame[12:14])
	if et == EtherTypeVLAN {
		if len(frame) < ethTaggedHdrLen {
			return 0, 0, false
		}
		l3 = ethTaggedHdrLen
		et = binary.BigEndian.Uint16(frame[16:18])
	}
	if et != EtherTypeIPv4 || len(frame) < l3+IPv4HeaderLen {
		return 0, 0, false
	}
	ihl = int(frame[l3]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(frame) < l3+ihl {
		return 0, 0, false
	}
	return l3, ihl, true
}

// patchIPAddr rewrites the IPv4 address at hdrOff (12 for src, 16 for dst),
// fixing the IP header checksum and the TCP/UDP checksum (pseudo-header)
// incrementally.
func patchIPAddr(frame []byte, hdrOff int, a Addr) bool {
	l3, ihl, ok := ipLayout(frame)
	if !ok {
		return false
	}
	hdr := frame[l3:]
	old := AddrFromSlice(hdr[hdrOff : hdrOff+4])
	if old == a {
		return true
	}
	delta := csumDelta32(uint32(old), uint32(a))
	binary.BigEndian.PutUint32(hdr[hdrOff:], uint32(a))
	csumApply(hdr[10:12], delta)
	// Transport checksums cover the pseudo-header.
	seg := frame[l3+ihl:]
	switch hdr[9] {
	case ProtoTCP:
		if len(seg) >= TCPHeaderLen {
			csumApply(seg[16:18], delta)
		}
	case ProtoUDP:
		if len(seg) >= UDPHeaderLen && binary.BigEndian.Uint16(seg[6:8]) != 0 {
			csumApply(seg[6:8], delta)
			if binary.BigEndian.Uint16(seg[6:8]) == 0 {
				binary.BigEndian.PutUint16(seg[6:8], 0xffff)
			}
		}
	}
	return true
}

// PatchIPSrc rewrites the IPv4 source address in place with checksum fixup.
func PatchIPSrc(frame []byte, a Addr) bool { return patchIPAddr(frame, 12, a) }

// PatchIPDst rewrites the IPv4 destination address in place with checksum
// fixup.
func PatchIPDst(frame []byte, a Addr) bool { return patchIPAddr(frame, 16, a) }

// tcpSeg locates the TCP header of a frame (nil if not TCP).
func tcpSeg(frame []byte) []byte {
	l3, ihl, ok := ipLayout(frame)
	if !ok || frame[l3+9] != ProtoTCP || len(frame) < l3+ihl+TCPHeaderLen {
		return nil
	}
	return frame[l3+ihl:]
}

// BumpTCPSeq adds delta to the TCP sequence number in place with checksum
// fixup — the shim sequence-space adjustment (Fig. 5) without re-marshal.
func BumpTCPSeq(frame []byte, delta uint32) bool {
	seg := tcpSeg(frame)
	if seg == nil {
		return false
	}
	old := binary.BigEndian.Uint32(seg[4:8])
	binary.BigEndian.PutUint32(seg[4:8], old+delta)
	csumApply(seg[16:18], csumDelta32(old, old+delta))
	return true
}
