package netstack

import (
	"bytes"
	"testing"
)

// checksumRef is the byte-pair loop Checksum used before it summed 8-byte
// words, kept as the reference the wide kernel is compared against. Its
// 32-bit accumulator does not wrap for inputs up to 64 KiB seeded below
// 2^20, which is the domain the comparisons stay in.
func checksumRef(b []byte, initial uint32) uint16 {
	sum := initial
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

const (
	checksumRefMaxLen     = 1 << 16
	checksumRefMaxInitial = 1 << 20
)

// checksumSeedLens straddle every boundary of the kernel: the 8-byte word,
// the 32-byte unrolled iteration, an MSS payload and a full frame.
var checksumSeedLens = []int{0, 1, 7, 8, 9, 31, 32, 33, 1460, 1514}

func checksumPattern(n int, mul byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + 3
	}
	return b
}

func TestChecksumMatchesReference(t *testing.T) {
	// Every length across several unrolled iterations, at every alignment
	// of the slice start, patterned and all-ones.
	backing := checksumPattern(1700, 7)
	ones := bytes.Repeat([]byte{0xff}, 1700)
	for _, buf := range [][]byte{backing, ones} {
		for off := 0; off < 8; off++ {
			for n := 0; off+n <= 1600; n++ {
				b := buf[off : off+n]
				for _, initial := range []uint32{0, 1, 0xffff, 0x10000, 0x1fffe, checksumRefMaxInitial} {
					if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
						t.Fatalf("len %d offset %d initial %#x: got %#04x, want %#04x", n, off, initial, got, want)
					}
				}
			}
		}
	}
	// Every initial up to 2^20 over a buffer with a word and a tail.
	b := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x80}
	for initial := uint32(0); initial <= checksumRefMaxInitial; initial++ {
		if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
			t.Fatalf("initial %#x: got %#04x, want %#04x", initial, got, want)
		}
	}
}

func FuzzChecksum(f *testing.F) {
	for _, n := range checksumSeedLens {
		f.Add(checksumPattern(n, 7), uint32(0))
		f.Add(bytes.Repeat([]byte{0xff}, n), uint32(0xffff))
		f.Add(checksumPattern(n, 13), uint32(checksumRefMaxInitial))
	}
	f.Fuzz(func(t *testing.T, b []byte, initial uint32) {
		if len(b) > checksumRefMaxLen {
			b = b[:checksumRefMaxLen]
		}
		initial %= checksumRefMaxInitial + 1
		if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
			t.Fatalf("len %d initial %#x: got %#04x, want %#04x", len(b), initial, got, want)
		}
	})
}

var checksumSink uint16

func BenchmarkChecksum1460(b *testing.B) {
	buf := checksumPattern(1460, 7)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		checksumSink += Checksum(buf, 0)
	}
}
