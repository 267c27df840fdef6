package host

import (
	"testing"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// Frame buffers are recycled by the host that consumes them (DESIGN.md §3b).
// newIPFrame takes the buffer of every datagram a host originates from its
// domain's frameList, and receiveFrame gives back every frame a host is
// handed once the frame's last reader has returned, whoever made the buffer.
// A frame dropped anywhere else is left to the collector.

// frameClasses are the capacities buffers are made in, smallest first: a
// control segment and a segment of up to 256 payload bytes, each with the
// tail room an access port's tag needs. On every benchmark workload nearly
// all host frames are one of these or a bulk segment of over 512 payload
// bytes. Bulk segments stay outside the classes, made as they are sent and
// left to the collector: with them recycled too, the bulk workloads would
// allocate nothing, a baseline bench's alloc_mb cannot yet judge (DESIGN.md
// §3b).
var frameClasses = [...]int{
	ipHeadroom + netstack.TCPHeaderLen + netstack.VLANTagLen,
	ipHeadroom + netstack.TCPHeaderLen + 256 + netstack.VLANTagLen,
}

// maxIdleFrames bounds each class's free list: a domain whose hosts mostly
// receive is handed more buffers than they send, and the rest go to the
// collector. bulk_proxy's ACKs keep the most idle, up to 379 control
// buffers; at 256 it loses a third of them to the collector.
const maxIdleFrames = 512

// poisonByte is what put overwrites each released buffer with in test
// binaries, up to its capacity, so a receive callback that keeps the bytes
// it was handed past the call reads garbage instead of plausible bytes.
const poisonByte = 0xDB

var poisonFrames = testing.Testing()

// frameList is one simulation domain's free buffers per class, touched only
// by that domain's goroutine.
type frameList struct {
	idle [len(frameClasses)][][]byte
}

type frameListKey struct{}

// framesOf returns s's frame list, creating it with the domain's first host.
func framesOf(s *sim.Simulator) *frameList {
	return s.Local(frameListKey{}, func() any { return new(frameList) }).(*frameList)
}

// classFor returns the smallest class whose buffers hold size bytes, or
// len(frameClasses) when none does.
func classFor(size int) int {
	c := 0
	for c < len(frameClasses) && frameClasses[c] < size {
		c++
	}
	return c
}

// take returns an idle buffer of class c, empty, or nil when there is none.
func (l *frameList) take(c int) []byte {
	if c == len(frameClasses) {
		return nil
	}
	idle := l.idle[c]
	n := len(idle)
	if n == 0 {
		return nil
	}
	buf := idle[n-1]
	idle[n-1] = nil
	l.idle[c] = idle[:n-1]
	return buf
}

// put releases a consumed frame's buffer into the largest class its capacity
// fills, unless that class is full or the buffer is smaller than every class
// or larger than the largest.
func (l *frameList) put(buf []byte) {
	buf = buf[:cap(buf)]
	if poisonFrames {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
	c := classFor(len(buf)+1) - 1
	if c < 0 || len(buf) > frameClasses[len(frameClasses)-1] || len(l.idle[c]) >= maxIdleFrames {
		return
	}
	l.idle[c] = append(l.idle[c], buf[:0])
}
