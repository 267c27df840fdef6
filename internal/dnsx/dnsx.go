// Package dnsx implements the slice of DNS the farm needs: the RFC 1035
// wire format for A-record queries, a recursive-resolver stand-in served on
// the inmate network (§5.3), and a client helper. Malware that locates its
// C&C via DNS — including domain-generation algorithms probing for
// registered names — exercises this service.
package dnsx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"gq/internal/netstack"
)

// Port is the DNS service port.
const Port = 53

// Query/response codes.
const (
	RcodeNoError  = 0
	RcodeNXDomain = 3

	TypeA   = 1
	ClassIN = 1
)

// Message is a DNS message restricted to a single question plus A answers.
type Message struct {
	ID       uint16
	Response bool
	Rcode    uint8
	Name     string // question name, lower-case, no trailing dot
	Answers  []netstack.Addr
	TTL      uint32
}

// Marshal encodes the message (question section always present).
func (m *Message) Marshal() []byte {
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint16(b, m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15 // QR
		flags |= 1 << 7  // RA
	}
	flags |= 1 << 8 // RD
	flags |= uint16(m.Rcode) & 0xf
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, 1)                      // QDCOUNT
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers))) // ANCOUNT
	b = binary.BigEndian.AppendUint16(b, 0)                      // NSCOUNT
	b = binary.BigEndian.AppendUint16(b, 0)                      // ARCOUNT
	b = appendName(b, m.Name)
	b = binary.BigEndian.AppendUint16(b, TypeA)
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	for _, a := range m.Answers {
		b = appendName(b, m.Name) // no compression; repeat the name
		b = binary.BigEndian.AppendUint16(b, TypeA)
		b = binary.BigEndian.AppendUint16(b, ClassIN)
		b = binary.BigEndian.AppendUint32(b, m.TTL)
		b = binary.BigEndian.AppendUint16(b, 4)
		b = binary.BigEndian.AppendUint32(b, uint32(a))
	}
	return b
}

func appendName(b []byte, name string) []byte {
	for _, label := range strings.Split(name, ".") {
		if label == "" {
			continue
		}
		if len(label) > 63 {
			label = label[:63]
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0)
}

// Unmarshal decodes a message produced by Marshal (no compression support,
// which is fine: both ends are ours).
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("dnsx: message too short")
	}
	m := &Message{}
	m.ID = binary.BigEndian.Uint16(b[0:2])
	flags := binary.BigEndian.Uint16(b[2:4])
	m.Response = flags&(1<<15) != 0
	m.Rcode = uint8(flags & 0xf)
	qd := binary.BigEndian.Uint16(b[4:6])
	an := binary.BigEndian.Uint16(b[6:8])
	if qd != 1 {
		return nil, fmt.Errorf("dnsx: want exactly one question, got %d", qd)
	}
	off := 12
	name, off, err := readName(b, off)
	if err != nil {
		return nil, err
	}
	m.Name = name
	if len(b) < off+4 {
		return nil, fmt.Errorf("dnsx: truncated question")
	}
	off += 4 // qtype + qclass
	for i := 0; i < int(an); i++ {
		_, o, err := readName(b, off)
		if err != nil {
			return nil, err
		}
		off = o
		if len(b) < off+10 {
			return nil, fmt.Errorf("dnsx: truncated answer")
		}
		typ := binary.BigEndian.Uint16(b[off : off+2])
		ttl := binary.BigEndian.Uint32(b[off+4 : off+8])
		rdlen := int(binary.BigEndian.Uint16(b[off+8 : off+10]))
		off += 10
		if len(b) < off+rdlen {
			return nil, fmt.Errorf("dnsx: truncated rdata")
		}
		if typ == TypeA && rdlen == 4 { // TTL is the A answers' (the last one's)
			m.Answers = append(m.Answers, netstack.AddrFromSlice(b[off:off+4]))
			m.TTL = ttl
		}
		off += rdlen
	}
	return m, nil
}

// readName reads the name at off as Message.Name holds it: its labels
// joined by dots, ASCII letters lower-cased (RFC 4343: case folds for ASCII
// only, so a label keeps its length). A label holding a dot has no such form
// and is refused.
func readName(b []byte, off int) (string, int, error) {
	var name []byte
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("dnsx: truncated name")
		}
		l := int(b[off])
		off++
		if l == 0 {
			break
		}
		if l > 63 || off+l > len(b) {
			return "", 0, fmt.Errorf("dnsx: bad label")
		}
		label := b[off : off+l]
		if bytes.IndexByte(label, '.') >= 0 {
			return "", 0, fmt.Errorf("dnsx: dot in label")
		}
		if len(name) > 0 {
			name = append(name, '.')
		}
		for _, c := range label {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			name = append(name, c)
		}
		off += l
	}
	return string(name), off, nil
}
