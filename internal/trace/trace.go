// Package trace implements GQ's two-pronged packet trace recording (§5.6):
// per-subfarm recording from the inmate network's perspective (with
// unroutable internal addresses, giving some immediate anonymity for data
// sharing), and system-wide recording at the upstream interface. Traces are
// written in classic microsecond-precision libpcap format, so standard
// tooling can read them; Read also takes the nanosecond-precision variant
// other tools write.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Pcap file constants.
const (
	pcapMagic = 0xa1b2c3d4
	// pcapMagicNano marks nanosecond-resolution timestamps, which Read
	// accepts from pcaps written outside the program.
	pcapMagicNano = 0xa1b23c4d
	pcapVMajor    = 2
	pcapVMinor    = 4
	pcapSnaplen   = 65535
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1
)

// Writer emits a pcap stream. Output is buffered: call Flush (or Close)
// before handing the underlying file to a reader.
type Writer struct {
	w       *bufio.Writer
	started bool

	// Packets counts records written; Bytes counts original on-wire frame
	// bytes (not snaplen-capped capture bytes), matching what interface
	// counters would have seen.
	Packets uint64
	Bytes   uint64
}

// NewWriter wraps w with a classic (microsecond-timestamp) pcap writer; the
// file header is emitted lazily on first packet (or explicitly via
// WriteHeader).
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// WriteHeader emits the pcap global header.
func (t *Writer) WriteHeader() error {
	if t.started {
		return nil
	}
	t.started = true
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVMinor)
	// thiszone, sigfigs zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	_, err := t.w.Write(hdr[:])
	return err
}

// WritePacket records one frame captured at absolute time ts.
func (t *Writer) WritePacket(ts time.Time, frame []byte) error {
	if err := t.WriteHeader(); err != nil {
		return err
	}
	capped := frame
	if len(capped) > pcapSnaplen {
		capped = capped[:pcapSnaplen]
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(capped)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	if _, err := t.w.Write(rec[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(capped); err != nil {
		return err
	}
	t.Packets++
	t.Bytes += uint64(len(frame))
	return nil
}

// Flush drains buffered records to the underlying writer.
func (t *Writer) Flush() error {
	if !t.started {
		// An empty trace should still be a valid pcap file.
		if err := t.WriteHeader(); err != nil {
			return err
		}
	}
	return t.w.Flush()
}

// Close flushes the stream. The underlying writer stays open: whoever
// opened it closes it.
func (t *Writer) Close() error {
	if err := t.Flush(); err != nil {
		return err
	}
	return nil
}

// Record is one packet read back from a pcap stream.
type Record struct {
	Time  time.Time
	Frame []byte
	// OrigLen is the original on-wire length (>= len(Frame) if truncated).
	OrigLen int
}

// Read parses a little-endian pcap stream with microsecond timestamps (as
// Writer produces) or nanosecond ones.
func Read(r io.Reader) ([]Record, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading global header: %w", err)
	}
	var subsecScale int64
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case pcapMagic:
		subsecScale = 1000 // microseconds on the wire
	case pcapMagicNano:
		subsecScale = 1
	default:
		return nil, fmt.Errorf("trace: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("trace: unsupported link type %d", lt)
	}
	var out []Record
	for {
		var rec [16]byte
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: reading record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:4])
		subsec := binary.LittleEndian.Uint32(rec[4:8])
		incl := binary.LittleEndian.Uint32(rec[8:12])
		orig := binary.LittleEndian.Uint32(rec[12:16])
		if incl > pcapSnaplen {
			return nil, fmt.Errorf("trace: record length %d exceeds snaplen", incl)
		}
		frame := make([]byte, incl)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("trace: reading packet body: %w", err)
		}
		out = append(out, Record{
			Time:    time.Unix(int64(sec), int64(subsec)*subsecScale).UTC(),
			Frame:   frame,
			OrigLen: int(orig),
		})
	}
}
