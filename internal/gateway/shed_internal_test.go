package gateway

import (
	"math/rand"
	"testing"
	"time"

	"gq/internal/netstack"
)

// refShedVictim is the scan shedLRU made before it kept a queue, kept as
// the reference the queue is compared against: the live flow with the least
// lastActivity, ties broken on the five-tuple.
func refShedVictim(r *Router) *Flow {
	var victim *Flow
	better := func(f *Flow) bool {
		v := victim
		switch {
		case v == nil:
			return true
		case f.lastActivity != v.lastActivity:
			return f.lastActivity < v.lastActivity
		case f.initIP != v.initIP:
			return f.initIP < v.initIP
		case f.initPort != v.initPort:
			return f.initPort < v.initPort
		case f.proto != v.proto:
			return f.proto < v.proto
		case f.respIP != v.respIP:
			return f.respIP < v.respIP
		}
		return f.respPort < v.respPort
	}
	r.eachFlow(func(f *Flow) {
		if better(f) {
			victim = f
		}
	})
	return victim
}

// checkShedQueue fails unless r.shed, while it exists, holds an entry for
// every live flow no later than the flow's last activity.
func checkShedQueue(t *testing.T, r *Router) {
	t.Helper()
	if r.shed == nil {
		return
	}
	earliest := map[*Flow]time.Duration{}
	for _, e := range *r.shed {
		if at, ok := earliest[e.f]; !ok || e.at < at {
			earliest[e.f] = e.at
		}
	}
	r.eachFlow(func(f *Flow) {
		if at, ok := earliest[f]; !ok || at > f.lastActivity {
			t.Fatalf("live flow %v:%d (last active %v) has no shed entry at or before it (entry %v, present %v)",
				f.initIP, f.initPort, f.lastActivity, at, ok)
		}
	})
}

// shedAndCompare sheds one flow and fails unless the victim is the one the
// scan picks.
func shedAndCompare(t *testing.T, r *Router, shed func()) {
	t.Helper()
	want := refShedVictim(r)
	before := r.FlowsShed.Value()
	shed()
	switch got := r.FlowsShed.Value() - before; {
	case want == nil && got != 0:
		t.Fatalf("shed %d flows from an empty table", got)
	case want == nil:
	case got != 1:
		t.Fatalf("shed %d flows, want 1", got)
	case want.state != fsClosed:
		t.Fatalf("the scan's victim %v:%d→%v:%d (last active %v) is still live",
			want.initIP, want.initPort, want.respIP, want.respPort, want.lastActivity)
	}
}

// The shed queue picks the scan's victim for every shed over a seeded storm
// of admissions at and below the bound, touches at few distinct instants
// (so activity ties are common and the five-tuple decides), closes and
// direct sheds.
func TestShedQueueMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		s, r := newSweepRig(t)
		r.maxFlows = 48
		rng := rand.New(rand.NewSource(seed))
		var flows []*Flow
		// pick returns a random live flow, forgetting closed ones it meets.
		pick := func() *Flow {
			for len(flows) > 0 {
				i := rng.Intn(len(flows))
				if f := flows[i]; f.state != fsClosed {
					return f
				}
				flows[i] = flows[len(flows)-1]
				flows = flows[:len(flows)-1]
			}
			return nil
		}
		sheds, built := 0, 0
		for op := 0; op < 20_000; op++ {
			hadQueue := r.shed != nil
			before := r.FlowsShed.Value()
			switch k := rng.Intn(20); {
			case k < 9:
				key := netstack.FlowKey{
					VLAN:    15,
					SrcIP:   netstack.AddrFrom4(10, 0, 0, byte(2+rng.Intn(6))),
					SrcPort: uint16(1000 + rng.Intn(16)),
					DstIP:   netstack.AddrFrom4(198, 51, 100, byte(1+rng.Intn(4))),
					DstPort: []uint16{53, 80}[rng.Intn(2)],
					Proto:   []uint8{netstack.ProtoTCP, netstack.ProtoUDP}[rng.Intn(2)],
				}
				if f := r.flowFromInitiator(key); f != nil {
					f.close("superseded")
				}
				admit := func() { flows = append(flows, r.newFlow(key, 15, false)) }
				if r.ActiveFlows() < r.maxFlows {
					admit()
				} else {
					shedAndCompare(t, r, admit)
				}
			case k < 15:
				if f := pick(); f != nil {
					f.touch()
				}
			case k < 17:
				if f := pick(); f != nil {
					f.close("storm")
				}
			case k < 18:
				shedAndCompare(t, r, func() { r.shedLRU() })
			default:
				s.RunFor(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
			sheds += int(r.FlowsShed.Value() - before)
			if !hadQueue && r.shed != nil {
				built++
			}
			checkShedQueue(t, r)
		}
		if sheds < 2_000 || built < 10 {
			t.Fatalf("seed %d: %d sheds, queue built %d times: the storm did not exercise the queue", seed, sheds, built)
		}
		t.Logf("seed %d: %d sheds, queue built %d times", seed, sheds, built)
	}
}
