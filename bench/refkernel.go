package main

// The reference kernel. The boxes this benchmark runs on are shared, and the
// speed of memory-bound code on them drifts by tens of percent over tens of
// seconds — far more than any bound worth setting, and too slowly for a
// median over reps to remove. So every rep is bracketed by two runs of a
// small fixed kernel with the farm's habits (allocate a frame-sized buffer,
// copy and checksum it, push and pop a heap of pointers; tiny live heap, high
// allocation rate), and the rep's host times are divided by how much slower
// than nominal the kernel ran. The kernel shares no code with the product, so
// nothing a PR does to gq can move it.

import (
	"container/heap"
	"time"
)

// refNominal is what one full kernel run takes on the quiet reference box,
// so normalised times read as seconds on that box.
const refNominal = 50 * time.Millisecond

const (
	refIterations = 40000 // a full run; the smoke test runs fewer
	refFrame      = 1100
	refLive       = 600
)

type refEvent struct {
	at  uint64
	buf []byte
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refKernel runs the kernel for the given iterations and returns how long a
// full run would have taken at that pace.
func refKernel(iterations int) time.Duration {
	t0 := time.Now()
	src := make([]byte, refFrame)
	var h refHeap
	var sum uint32
	x := uint64(1)
	for i := 0; i < iterations; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b := make([]byte, refFrame)
		copy(b, src)
		for j := 0; j+1 < len(b); j += 2 {
			sum += uint32(b[j])<<8 | uint32(b[j+1])
		}
		heap.Push(&h, &refEvent{at: x >> 20, buf: b})
		if h.Len() > refLive {
			src = heap.Pop(&h).(*refEvent).buf
		}
	}
	sinkhole += uint64(sum)
	return time.Since(t0) * refIterations / time.Duration(iterations)
}

// slowness is how many times slower than nominal the box ran the kernel
// around a rep, given the runs before and after it.
func slowness(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}
