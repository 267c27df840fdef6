package gateway

import (
	"time"

	"gq/internal/obs"
)

// shedEntry is a flow as the shed queue last saw it: at is the flow's
// lastActivity when the entry went in.
type shedEntry struct {
	at time.Duration
	f  *Flow
}

// before orders shed entries by activity, ties broken on the five-tuple,
// which no two live flows share, so the victim does not depend on map
// iteration order.
func (e shedEntry) before(o shedEntry) bool {
	a, b := e.f, o.f
	switch {
	case e.at != o.at:
		return e.at < o.at
	case a.initIP != b.initIP:
		return a.initIP < b.initIP
	case a.initPort != b.initPort:
		return a.initPort < b.initPort
	case a.proto != b.proto:
		return a.proto < b.proto
	case a.respIP != b.respIP:
		return a.respIP < b.respIP
	}
	return a.respPort < b.respPort
}

// shedQueue is a lazy min-heap of the live flows by last activity. Every
// live flow has one entry whose at is at most its lastActivity; an entry
// is not updated when its flow is touched or closed, but corrected when it
// reaches the top (shedLRU).
type shedQueue []shedEntry

func (q *shedQueue) push(e shedEntry) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *shedQueue) pop() shedEntry {
	h := *q
	top, last := h[0], len(h)-1
	h[0], h[last] = h[last], shedEntry{}
	*q = h[:last]
	q.down(0)
	return top
}

// down sifts the entry at i towards the leaves.
func (q shedQueue) down(i int) {
	for {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(q) && q[l].before(q[m]) {
			m = l
		}
		if r < len(q) && q[r].before(q[m]) {
			m = r
		}
		if m == i {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// shedLRU evicts the least-recently-active flow to make room for a new one
// when the table is at its bound. The victim's endpoints receive RSTs so
// inmates see clean failure instead of a silent blackhole. Reports whether
// a victim was found.
//
// The first shed builds r.shed from the live flows; newFlow adds each flow
// it admits while r.shed exists and drops it once the table is below the
// bound. The top entry is dropped if its flow has left the index, put back
// at the flow's lastActivity if the flow was touched since, and otherwise
// names the victim: every other live flow's entry orders after it and is
// at most that flow's lastActivity, so no live flow is older.
func (r *Router) shedLRU() bool {
	if r.shed == nil {
		q := make(shedQueue, 0, r.indexed[keyInit])
		r.eachFlow(func(f *Flow) { q = append(q, shedEntry{f.lastActivity, f}) })
		for i := len(q)/2 - 1; i >= 0; i-- {
			q.down(i)
		}
		r.shed = &q
	}
	var victim *Flow
	for victim == nil && len(*r.shed) > 0 {
		e := r.shed.pop()
		f := e.f
		switch {
		case r.index[endpointKey(keyInit, f.proto, f.initIP, f.initPort, f.respIP, f.respPort)] != f:
		case f.lastActivity != e.at:
			r.shed.push(shedEntry{f.lastActivity, f})
		default:
			victim = f
		}
	}
	if victim == nil {
		return false
	}
	victim.reset(true)
	r.FlowsShed.Inc()
	ev := victim.event(obs.EvFlowShed)
	ev.Detail = "flow table full"
	r.sc.Emit(ev)
	victim.close("shed under pressure")
	return true
}
