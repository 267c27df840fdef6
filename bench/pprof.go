package main

// A minimal reader for the gzip-compressed protobuf CPU profiles that
// runtime/pprof writes: just enough of profile.proto to get each sample's
// call stack as function names and its sample count and CPU time. It keeps
// the profile split in-process — no `go tool pprof` child, no dependency.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64
	cpuNS int64
}

type profile struct{ samples []profSample }

var errTruncated = errors.New("pprof: truncated message")

// pbField is one decoded protobuf field: a varint/fixed value or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// pbFields walks one message's fields in order.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if f.wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			for i := size - 1; i >= 0; i-- {
				f.val = f.val<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedUint64 appends a repeated integer field, packed or not.
func repeatedUint64(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a runtime/pprof CPU profile. Sample values follow
// the runtime's layout: [samples/count, cpu/nanoseconds].
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := pbFields(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedUint64(s.locs, g)
				case 2:
					s.vals, err = repeatedUint64(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		ps := profSample{count: int64(s.vals[0]), cpuNS: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}
