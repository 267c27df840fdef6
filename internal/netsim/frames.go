package netsim

import (
	"testing"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// Frame buffers cycle through one list per simulation domain (DESIGN.md
// §3b), kept in the domain's wire beside the in-flight records. Every buffer
// a frame is built or copied into in the domain is taken from it: a host's
// datagrams and ARP frames, Port.Send's defensive copy, the switch's untagged
// flood copy, every frame the gateway builds. Every frame a host or a gateway
// receive entry consumes is put back once its last reader has returned,
// whoever made the buffer. A frame dropped anywhere else is left to the
// collector.

// frameClasses are the capacities buffers are made in, smallest first: a
// control segment and a segment of up to 256 payload bytes, each with the
// tail room an access port's tag needs. On every benchmark workload nearly
// all frames are one of these or a bulk segment of over 512 payload bytes.
// Bulk segments stay outside the classes, made as they are sent and left to
// the collector: with them recycled too, the bulk workloads would allocate
// nothing, a baseline bench's alloc_mb cannot yet judge (DESIGN.md §3b).
var frameClasses = [...]int{
	netstack.EthHeaderLen + netstack.IPv4HeaderLen + netstack.TCPHeaderLen + netstack.VLANTagLen,
	netstack.EthHeaderLen + netstack.IPv4HeaderLen + netstack.TCPHeaderLen + 256 + netstack.VLANTagLen,
}

// MaxIdleFrames bounds each class's idle buffers: a domain whose hosts mostly
// receive is handed more buffers than it sends, and the rest go to the
// collector. bulk_proxy's ACKs keep the most idle, up to 379 control
// buffers; at 256 it loses a third of them to the collector.
const MaxIdleFrames = 512

// PoisonByte is what Put overwrites each released buffer with in test
// binaries, up to its capacity, so a receiver that keeps the bytes it was
// handed past the call reads garbage instead of plausible bytes.
const PoisonByte = 0xDB

var poisonFrames = testing.Testing()

// Frames is one simulation domain's idle frame buffers per class, touched
// only by that domain's goroutine.
type Frames struct {
	idle [len(frameClasses)][][]byte
}

// FramesOf returns s's frame list, created with the domain's wire.
func FramesOf(s *sim.Simulator) *Frames { return &wireOf(s).frames }

// classFor returns the smallest class whose buffers hold size bytes, or
// len(frameClasses) when none does.
func classFor(size int) int {
	c := 0
	for c < len(frameClasses) && frameClasses[c] < size {
		c++
	}
	return c
}

// Take returns an empty buffer with room for size bytes: an idle one of the
// smallest class that holds them, else a new one made at that class's
// capacity, or at size when no class holds it. Whatever a recycled buffer
// still holds is the taker's to write over before it sends.
func (l *Frames) Take(size int) []byte {
	c := classFor(size)
	if c == len(frameClasses) {
		return make([]byte, 0, size)
	}
	idle := l.idle[c]
	n := len(idle)
	if n == 0 {
		return make([]byte, 0, frameClasses[c])
	}
	buf := idle[n-1]
	idle[n-1] = nil
	l.idle[c] = idle[:n-1]
	return buf
}

// Put releases a consumed frame's buffer into the largest class its capacity
// fills, unless that class is full or the buffer is smaller than every class
// or larger than the largest.
func (l *Frames) Put(frame []byte) {
	buf := frame[:cap(frame)]
	if poisonFrames {
		for i := range buf {
			buf[i] = PoisonByte
		}
	}
	c := classFor(len(buf)+1) - 1
	if c < 0 || len(buf) > frameClasses[len(frameClasses)-1] || len(l.idle[c]) >= MaxIdleFrames {
		return
	}
	l.idle[c] = append(l.idle[c], buf[:0])
}
