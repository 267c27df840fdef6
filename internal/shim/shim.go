// Package shim implements GQ's shimming protocol (Fig. 4), the coupling
// between the gateway's packet router and the containment server. It is
// conceptually similar to SOCKS: upon redirecting a new flow to the
// containment server, the gateway injects a containment request shim with
// meta-information into the flow; the containment server conveys its
// verdict back in a containment response shim, which the gateway strips
// before relaying content onward.
//
// For TCP the shims travel as extra bytes injected into the sequence space
// (requiring the gateway to bump and unbump sequence and acknowledgement
// numbers); for UDP they pad the datagrams.
package shim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"gq/internal/netstack"
)

// Magic identifies shim messages ("GQSM").
const Magic uint32 = 0x4751534d

// Version is the shim protocol version.
const Version uint8 = 1

// Message types.
const (
	TypeRequest  uint8 = 1
	TypeResponse uint8 = 2
	// TypeHeartbeat is a supervisor liveness probe: the gateway sends one
	// over the shim channel and a live containment server echoes it back
	// verbatim. Heartbeats carry no flow information, so flow accounting
	// (report.AuditTrace) must never count them — their 16-byte
	// length sits below RequestLen on purpose.
	TypeHeartbeat uint8 = 3
)

// Wire sizes.
const (
	PreambleLen = 8
	// HeartbeatLen is the fixed size of a heartbeat probe (preamble plus a
	// 64-bit sequence number).
	HeartbeatLen = 16
	// RequestLen is the fixed size of a containment request shim.
	RequestLen = 24
	// ResponseMinLen is the minimum size of a containment response shim
	// (annotation may extend it).
	ResponseMinLen = 56
	// PolicyNameLen is the fixed-size policy name field.
	PolicyNameLen = 32
)

// Verdict is the containment decision, expressed as a numeric opcode.
// Verdicts combine when feasible (e.g. Redirect|Rewrite sends a flow to a
// different destination while also rewriting its contents).
type Verdict uint32

// Containment verdicts (Fig. 2).
const (
	Forward Verdict = 1 << iota
	Limit
	Drop
	Redirect
	Reflect
	Rewrite
)

// verdictNames is indexed by bit position.
var verdictNames = [...]string{"FORWARD", "LIMIT", "DROP", "REDIRECT", "REFLECT", "REWRITE"}

// String renders e.g. "REDIRECT|REWRITE". A single verdict — what nearly
// every journalled flow carries — is a constant and allocates nothing.
func (v Verdict) String() string {
	if v == 0 {
		return "NONE"
	}
	if i := bits.TrailingZeros32(uint32(v)); v == 1<<i && i < len(verdictNames) {
		return verdictNames[i]
	}
	var parts []string
	for i, name := range verdictNames {
		if v&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("Verdict(%#x)", uint32(v))
	}
	return strings.Join(parts, "|")
}

// Has reports whether v includes bit.
func (v Verdict) Has(bit Verdict) bool { return v&bit != 0 }

// Request is the containment request shim: the original flow's endpoint
// four-tuple, the VLAN ID of the sending/receiving inmate, and a nonce port
// on which the gateway will expect a possible subsequent outbound
// connection from the containment server (for continuous rewriting).
type Request struct {
	OrigIP    netstack.Addr
	RespIP    netstack.Addr
	OrigPort  uint16
	RespPort  uint16
	VLAN      uint16
	NoncePort uint16
}

// Response is the containment response shim: the resulting endpoint
// four-tuple, the verdict, the name tag of the containment policy, and an
// optional annotation clarifying the decision context.
type Response struct {
	OrigIP     netstack.Addr
	RespIP     netstack.Addr
	OrigPort   uint16
	RespPort   uint16
	Verdict    Verdict
	PolicyName string // truncated/padded to 32 bytes on the wire
	Annotation string
}

func putPreamble(b []byte, typ uint8, length int) []byte {
	b = binary.BigEndian.AppendUint32(b, Magic)
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	return append(b, typ, Version)
}

// parsePreamble validates and returns (length, type).
func parsePreamble(b []byte) (int, uint8, error) {
	if len(b) < PreambleLen {
		return 0, 0, fmt.Errorf("shim: preamble truncated (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint32(b[0:4]) != Magic {
		return 0, 0, fmt.Errorf("shim: bad magic %#x", binary.BigEndian.Uint32(b[0:4]))
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	typ := b[6]
	if b[7] != Version {
		return 0, 0, fmt.Errorf("shim: unsupported version %d", b[7])
	}
	return length, typ, nil
}

// Marshal encodes the 24-byte request shim into a new buffer.
func (r *Request) Marshal() []byte { return r.AppendTo(make([]byte, 0, RequestLen)) }

// AppendTo appends the 24-byte request shim to b and returns the extended
// slice: the per-flow paths encode into storage they own.
func (r *Request) AppendTo(b []byte) []byte {
	b = putPreamble(b, TypeRequest, RequestLen)
	b = binary.BigEndian.AppendUint32(b, uint32(r.OrigIP))
	b = binary.BigEndian.AppendUint32(b, uint32(r.RespIP))
	b = binary.BigEndian.AppendUint16(b, r.OrigPort)
	b = binary.BigEndian.AppendUint16(b, r.RespPort)
	b = binary.BigEndian.AppendUint16(b, r.VLAN)
	b = binary.BigEndian.AppendUint16(b, r.NoncePort)
	return b
}

// UnmarshalRequest decodes a request shim into a new Request.
func UnmarshalRequest(b []byte) (*Request, error) {
	r := new(Request)
	if err := r.Unmarshal(b); err != nil {
		return nil, err
	}
	return r, nil
}

// Unmarshal decodes a request shim into r, the caller's storage: the
// per-flow paths decode into a value they already own. r is untouched on
// error.
func (r *Request) Unmarshal(b []byte) error {
	length, typ, err := parsePreamble(b)
	if err != nil {
		return err
	}
	if typ != TypeRequest {
		return fmt.Errorf("shim: message type %d, want request", typ)
	}
	if length != RequestLen || len(b) < RequestLen {
		return fmt.Errorf("shim: request length %d", length)
	}
	*r = Request{
		OrigIP:    netstack.AddrFromSlice(b[8:12]),
		RespIP:    netstack.AddrFromSlice(b[12:16]),
		OrigPort:  binary.BigEndian.Uint16(b[16:18]),
		RespPort:  binary.BigEndian.Uint16(b[18:20]),
		VLAN:      binary.BigEndian.Uint16(b[20:22]),
		NoncePort: binary.BigEndian.Uint16(b[22:24]),
	}
	return nil
}

// Marshal encodes the response shim (>= 56 bytes) into a new buffer.
func (r *Response) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, ResponseMinLen+len(r.Annotation)))
}

// AppendTo appends the response shim (>= 56 bytes) to b and returns the
// extended slice.
func (r *Response) AppendTo(b []byte) []byte {
	b = putPreamble(b, TypeResponse, ResponseMinLen+len(r.Annotation))
	b = binary.BigEndian.AppendUint32(b, uint32(r.OrigIP))
	b = binary.BigEndian.AppendUint32(b, uint32(r.RespIP))
	b = binary.BigEndian.AppendUint16(b, r.OrigPort)
	b = binary.BigEndian.AppendUint16(b, r.RespPort)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Verdict))
	var name [PolicyNameLen]byte
	copy(name[:], r.PolicyName)
	b = append(b, name[:]...)
	return append(b, r.Annotation...)
}

// UnmarshalResponse decodes a response shim into a new Response and returns
// it along with its total wire length (so stream parsers can consume exactly
// that much).
func UnmarshalResponse(b []byte) (*Response, int, error) {
	r := new(Response)
	length, err := r.Unmarshal(b)
	if err != nil {
		return nil, 0, err
	}
	return r, length, nil
}

// Unmarshal decodes a response shim into r, the caller's storage, and
// returns its total wire length. r is untouched on error. A string field
// whose bytes match what r already holds keeps r's string, so a caller that
// decodes every shim into one Response makes no string for a repeated
// policy name or annotation.
func (r *Response) Unmarshal(b []byte) (int, error) { return r.unmarshal(b, nil) }

// Decoder decodes response shims into Resp, valid until the next Decode.
// It keeps the last decoderStrings distinct policy names and annotations
// it made, so verdicts that alternate among a few policies make no string
// once it has seen each.
type Decoder struct {
	Resp    Response
	strings [decoderStrings]string
	next    uint8
}

// decoderStrings bounds a Decoder's table: a farm's policies number a
// handful, and a table that misses only costs a string.
const decoderStrings = 16

// Decode decodes a response shim into d.Resp as Response.Unmarshal does.
func (d *Decoder) Decode(b []byte) (int, error) { return d.Resp.unmarshal(b, d) }

// str is old if it holds b's bytes, else the string in d's table that
// does, else a new string of them, which a non-nil d keeps in place of its
// oldest.
func (d *Decoder) str(old string, b []byte) string {
	if old == string(b) {
		return old
	}
	if d == nil {
		return string(b)
	}
	for _, s := range d.strings {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	d.strings[d.next] = s
	d.next = (d.next + 1) % decoderStrings
	return s
}

func (r *Response) unmarshal(b []byte, d *Decoder) (int, error) {
	length, typ, err := parsePreamble(b)
	if err != nil {
		return 0, err
	}
	if typ != TypeResponse {
		return 0, fmt.Errorf("shim: message type %d, want response", typ)
	}
	if length < ResponseMinLen {
		return 0, fmt.Errorf("shim: response length %d below minimum", length)
	}
	if len(b) < length {
		return 0, fmt.Errorf("shim: response truncated (%d of %d bytes)", len(b), length)
	}
	name := b[24 : 24+PolicyNameLen]
	end := len(name)
	for end > 0 && name[end-1] == 0 {
		end--
	}
	*r = Response{
		OrigIP:     netstack.AddrFromSlice(b[8:12]),
		RespIP:     netstack.AddrFromSlice(b[12:16]),
		OrigPort:   binary.BigEndian.Uint16(b[16:18]),
		RespPort:   binary.BigEndian.Uint16(b[18:20]),
		Verdict:    Verdict(binary.BigEndian.Uint32(b[20:24])),
		PolicyName: d.str(r.PolicyName, name[:end]),
		Annotation: d.str(r.Annotation, b[ResponseMinLen:length]),
	}
	return length, nil
}

// PeekLength inspects a buffered stream prefix and reports the total length
// of the shim message at its head, or (0, false) if more bytes are needed.
// It returns an error if the buffer cannot begin with a valid shim.
func PeekLength(b []byte) (int, bool, error) {
	if len(b) < PreambleLen {
		return 0, false, nil
	}
	length, _, err := parsePreamble(b)
	if err != nil {
		return 0, false, err
	}
	return length, len(b) >= length, nil
}
