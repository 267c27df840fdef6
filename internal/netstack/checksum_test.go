package netstack

import (
	"bytes"
	"fmt"
	"testing"
)

// checksumRef is the byte-pair loop Checksum used before it summed 8-byte
// words, kept as the reference the wide kernel is compared against. Its
// 64-bit accumulator does not wrap for inputs up to 64 KiB with any uint32
// seed, which is the domain the comparisons stay in.
func checksumRef(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for len(b) >= 2 {
		sum += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

const checksumRefMaxLen = 1 << 16

// checksumSeedLens straddle every boundary of the kernel: the 16-, 32- and
// 64-byte steps and two loop iterations, every 1-7-byte tail after each
// 8-byte step, an MSS payload and a full frame.
var checksumSeedLens = func() []int {
	lens := []int{0, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1460, 1514}
	for base := 0; base <= 64; base += 8 {
		for tail := 1; tail <= 7; tail++ {
			lens = append(lens, base+tail)
		}
	}
	return lens
}()

var checksumSeeds = []uint32{0, 1, 0xffff, 0x10000, 0x1fffe, 1 << 20, 0xffffffff}

func checksumPattern(n int, mul byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + 3
	}
	return b
}

func TestChecksumMatchesReference(t *testing.T) {
	// Every length across several loop iterations, at every alignment of
	// the slice start, patterned and all-ones.
	backing := checksumPattern(1700, 7)
	ones := bytes.Repeat([]byte{0xff}, 1700)
	for _, buf := range [][]byte{backing, ones} {
		for off := 0; off < 8; off++ {
			for n := 0; off+n <= 1600; n++ {
				b := buf[off : off+n]
				for _, initial := range checksumSeeds {
					if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
						t.Fatalf("len %d offset %d initial %#x: got %#04x, want %#04x", n, off, initial, got, want)
					}
				}
			}
		}
	}
	// Every initial up to 2^20, and the top 2^20, over a buffer with a word
	// and a tail.
	b := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x80}
	for i := uint32(0); i <= 1<<20; i++ {
		for _, initial := range []uint32{i, ^i} {
			if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
				t.Fatalf("initial %#x: got %#04x, want %#04x", initial, got, want)
			}
		}
	}
}

func FuzzChecksum(f *testing.F) {
	for _, n := range checksumSeedLens {
		f.Add(checksumPattern(n, 7), uint32(0))
		f.Add(bytes.Repeat([]byte{0xff}, n), uint32(0xffff))
		f.Add(checksumPattern(n, 13), uint32(0xffffffff))
	}
	f.Fuzz(func(t *testing.T, b []byte, initial uint32) {
		if len(b) > checksumRefMaxLen {
			b = b[:checksumRefMaxLen]
		}
		if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
			t.Fatalf("len %d initial %#x: got %#04x, want %#04x", len(b), initial, got, want)
		}
	})
}

var checksumSink uint16

// BenchmarkChecksum sums an IPv4 header, a small segment, the classic
// minimum datagram and an MSS payload.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{20, 60, 576, 1460} {
		buf := checksumPattern(n, 7)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink += Checksum(buf, 0)
			}
		})
	}
}
