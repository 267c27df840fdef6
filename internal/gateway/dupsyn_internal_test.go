package gateway

import (
	"fmt"
	"reflect"
	"testing"

	"gq/internal/netstack"
	"gq/internal/shim"
)

// A copy of the opening SYN that a lossy, duplicating or reordering link
// delivers late is forwarded unchanged while the flow has not sent its
// request shim (the SYN-ACK may have been lost), and dropped after it:
// shifted by the shim it would open a second connection at the server,
// and taken as a new opening it would rewind the flow's initiator
// sequence space.
func TestLateDuplicateSYN(t *testing.T) {
	for _, tc := range []struct {
		state     int
		forwarded bool
	}{
		{lcAwaitPre, true},
		{lcAwaitPost, false},
		{lcSplice, false},
		{lcRewrite, false},
	} {
		t.Run(lcStateNames[tc.state], func(t *testing.T) {
			rig := newLifecycleRig(t)
			var want []string
			if tc.forwarded {
				cs := rig.r.cfg.ContainmentCluster[0]
				want = []string{fmt.Sprintf("cs:TCP %s:4000 > %s:%d [SYN] seq=7000 ack=0 len=0 (vlan %d)", lcInit, cs.IP, cs.Port, cs.VLAN)}
			}
			f := rig.flowIn(tc.state, 4000)
			if tc.state != lcAwaitPre {
				f.shimSent, f.c2sShim = true, shim.RequestLen
				f.initNextSeq = 7001 + 300 // bytes the initiator sent since
			}
			state, iss, next := f.state, f.initISS, f.initNextSeq

			rig.trunk.port.Send(inmateSegment(f, 7000, 0, netstack.FlagSYN, nil))
			rig.settle()

			if !reflect.DeepEqual(rig.wire, want) {
				t.Errorf("wire saw %q, want %q", rig.wire, want)
			}
			if f.state != state || f.initISS != iss || f.initNextSeq != next {
				t.Errorf("flow moved: state %v ISS %d next %d, was %v %d %d",
					f.state, f.initISS, f.initNextSeq, state, iss, next)
			}
			if got := rig.r.FlowsCreated.Value(); got != 1 {
				t.Errorf("flows_created = %d, want 1", got)
			}
		})
	}
}
