package shim

import (
	"encoding/binary"
	"fmt"
)

// Heartbeat is the supervisor's liveness probe. The gateway addresses it to
// a containment endpoint's shim port exactly like a UDP request shim; a
// live containment server echoes the message back unchanged, and the
// supervisor matches the echoed sequence number against the probe it is
// awaiting. A crashed or shut-down server simply never answers — missed
// deadlines, not error replies, are the down signal.
type Heartbeat struct {
	Seq uint64
}

// AppendTo appends the 16-byte heartbeat probe to b and returns the
// extended slice.
func (h *Heartbeat) AppendTo(b []byte) []byte {
	b = putPreamble(b, TypeHeartbeat, HeartbeatLen)
	return binary.BigEndian.AppendUint64(b, h.Seq)
}

// UnmarshalHeartbeat decodes a heartbeat probe.
func UnmarshalHeartbeat(b []byte) (*Heartbeat, error) {
	length, typ, err := parsePreamble(b)
	if err != nil {
		return nil, err
	}
	if typ != TypeHeartbeat {
		return nil, fmt.Errorf("shim: message type %d, want heartbeat", typ)
	}
	if length != HeartbeatLen || len(b) < HeartbeatLen {
		return nil, fmt.Errorf("shim: heartbeat length %d", length)
	}
	return &Heartbeat{Seq: binary.BigEndian.Uint64(b[8:16])}, nil
}
