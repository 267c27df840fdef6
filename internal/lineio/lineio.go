// Package lineio cuts a TCP byte stream into LF-terminated lines: the one
// line framer of the farm's line protocols (DESIGN.md §3b). SMTP, the
// banner grab, the C&C filter, the inmate controller and the C&C and
// honeypot services all read their peers through a Reader, and each line
// they are handed is bounded, so a peer that streams bytes with no LF holds
// at most one bound's worth of them.
package lineio

import "bytes"

// DefaultMax bounds a line of a protocol that names no bound of its own. It
// exceeds every line the farm's own senders write: the longest is a Storm
// RELAY job carrying its payload in base64.
const DefaultMax = 64 << 10

// firstCap is the most a Reader allocates for the start of a split line
// before it has seen one longer.
const firstCap = 1 << 10

// Reader cuts a byte stream into lines where the bytes lie: only the start
// of a line split across segments is copied, into a buffer that never
// holds more than Max octets. A longer line is reported once, as soon as
// its excess is seen, and discarded up to its LF.
type Reader struct {
	// Max bounds a line, in octets before its LF; zero means DefaultMax.
	Max int

	buf      []byte
	skipping bool
}

func (r *Reader) max() int {
	if r.Max > 0 {
		return r.Max
	}
	return DefaultMax
}

// Feed hands each line completed in data to line, without its LF (CRs are
// the protocol's to trim); the slice is valid only for the call. A line
// over the bound goes to tooLong instead. data is read in place and not
// retained; an unterminated rest is held for the next call.
func (r *Reader) Feed(data []byte, line func([]byte), tooLong func()) {
	limit := r.max()
	for len(data) > 0 {
		l, rest, found := bytes.Cut(data, []byte{'\n'})
		switch {
		case r.skipping:
		case len(r.buf)+len(l) > limit:
			r.buf, r.skipping = r.buf[:0], true
			tooLong()
		case !found:
			if r.buf == nil {
				r.buf = make([]byte, 0, min(limit, firstCap))
			}
			r.buf = append(r.buf, l...)
		default:
			if len(r.buf) > 0 {
				l, r.buf = append(r.buf, l...), r.buf[:0]
			}
			line(l)
		}
		if !found {
			return
		}
		data, r.skipping = rest, false
	}
}

// Pending is the unterminated start of a line held for the next Feed, for
// a protocol that acts on it when the peer closes. It is valid until the
// next Feed.
func (r *Reader) Pending() []byte { return r.buf }
