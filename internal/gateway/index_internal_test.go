package gateway

import (
	"bytes"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/shim"
)

// One index finds every flow (DESIGN.md §3g): these tests pin the lookups
// where a responder is not who the initiator addressed, where one socket owns
// several flows, and the order in which a full table sheds them.

// udpIndexRig is a lifecycle rig that exchanges datagrams with the gateway:
// send puts one on a wire, verdict answers a UDP flow's request shim.
type udpIndexRig struct {
	*lifecycleRig
	t *testing.T
}

func (rig udpIndexRig) send(port *framePort, eth netstack.Ethernet, src, dst netstack.Addr, sport, dport uint16, payload []byte) {
	eth.Dst, eth.EtherType = GatewayMAC, netstack.EtherTypeIPv4
	p := &netstack.Packet{
		Eth: eth, IP: &netstack.IPv4{TTL: 64, Src: src, Dst: dst},
		UDP: &netstack.UDP{SrcPort: sport, DstPort: dport}, Payload: payload,
	}
	port.port.Send(p.Marshal())
	rig.settle()
}

// open sends the initiator's first datagram to dst:dport and returns the
// nonce port its shim-padded copy reached the containment server from.
func (rig udpIndexRig) open(dst netstack.Addr, dport uint16) uint16 {
	rig.trunk.take(rig.t)
	rig.send(rig.trunk, netstack.Ethernet{Src: inmateMAC(lcVLAN), VLAN: lcVLAN}, lcInit, dst, 4000, dport, []byte("query"))
	for _, p := range rig.trunk.take(rig.t) {
		if p.UDP != nil && p.IP.Dst == rig.r.cfg.ContainmentCluster[0].IP {
			return p.UDP.SrcPort
		}
	}
	rig.t.Fatalf("no datagram to the containment server for the flow to %v:%d", dst, dport)
	return 0
}

// verdict answers the flow at nonce with a verdict naming actual:port.
func (rig udpIndexRig) verdict(nonce uint16, v shim.Verdict, actual netstack.Addr, port uint16) {
	resp := shim.Response{OrigIP: lcInit, RespIP: actual, RespPort: port, Verdict: v, PolicyName: "index"}
	rig.send(rig.trunk, netstack.Ethernet{Src: csMAC, VLAN: rig.r.cfg.ContainmentCluster[0].VLAN},
		rig.r.cfg.ContainmentCluster[0].IP, lcInit, rig.r.cfg.ContainmentCluster[0].Port, nonce, resp.Marshal())
}

// toInitiator returns the datagrams the gateway delivered to the initiator.
func (rig udpIndexRig) toInitiator() []*netstack.Packet {
	var out []*netstack.Packet
	for _, p := range rig.trunk.take(rig.t) {
		if p.UDP != nil && p.IP.Dst == lcInit && p.Eth.VLAN == lcVLAN {
			out = append(out, p)
		}
	}
	return out
}

// An inmate's UDP flow REDIRECTed to a second inmate: that inmate answers the
// address it was shown, the initiator's global one. The answer belongs to the
// flow — it reaches the initiator in the original destination's name — and
// opens no second flow toward the containment server.
func TestUDPRedirectToInmateReplyReachesInitiator(t *testing.T) {
	rig := udpIndexRig{newLifecycleRig(t), t}
	r := rig.r
	r.learnInmate(lcPeerVLAN, lcPeer, inmateMAC(lcPeerVLAN))
	global := r.nat.ByVLAN(lcVLAN).Global

	rig.verdict(rig.open(lcResp, 53), shim.Redirect, lcPeer, 53)
	var probe *netstack.Packet
	for _, p := range rig.trunk.take(t) {
		if p.UDP != nil && p.IP.Dst == lcPeer {
			probe = p
		}
	}
	if probe == nil || probe.Eth.VLAN != lcPeerVLAN || probe.IP.Src != global || probe.UDP.SrcPort != 4000 || probe.UDP.DstPort != 53 {
		t.Fatalf("redirected datagram %v, want %v:4000 -> %v:53 on VLAN %d", probe, global, lcPeer, lcPeerVLAN)
	}

	rig.send(rig.trunk, netstack.Ethernet{Src: inmateMAC(lcPeerVLAN), VLAN: lcPeerVLAN}, lcPeer, global, 53, 4000, []byte("answer"))
	got := rig.toInitiator()
	if len(got) != 1 || got[0].IP.Src != lcResp || got[0].UDP.SrcPort != 53 || got[0].UDP.DstPort != 4000 ||
		!bytes.Equal(got[0].Payload, []byte("answer")) {
		t.Errorf("initiator received %v, want the answer from %v:53", got, lcResp)
	}
	if n := r.FlowsCreated.Value(); n != 1 {
		t.Errorf("flows_created = %d, want 1: the answer opened a flow of its own", n)
	}
}

// Two UDP flows of one socket reflected to one sink share the key the sink's
// answers are found by. Closing the older flow must leave it to the newer
// one: the sink's answer still reaches the initiator, in the newer flow's
// destination's name, and is counted there.
func TestClosingUDPFlowKeepsSharedKeyOfNewer(t *testing.T) {
	rig := udpIndexRig{newLifecycleRig(t), t}
	r := rig.r
	sink := netstack.MustParseAddr("10.3.0.9")
	r.RegisterServiceHost(sink, r.cfg.ContainmentCluster[0].VLAN)
	r.vlanARP[vlanAddr{uint32(r.cfg.ContainmentCluster[0].VLAN), sink}] = netstack.MAC{2, 0, 0, 0, 0, 9}

	rig.verdict(rig.open(lcResp, 53), shim.Reflect, sink, 53)
	rig.verdict(rig.open(lcResp2, 53), shim.Reflect, sink, 53)
	older := r.liveFlows(func(f *Flow) bool { return f.respIP == lcResp })
	newer := r.liveFlows(func(f *Flow) bool { return f.respIP == lcResp2 })
	if len(older) != 1 || len(newer) != 1 {
		t.Fatalf("%d flows to %v and %d to %v, want one each", len(older), lcResp, len(newer), lcResp2)
	}
	older[0].close("done")
	rig.trunk.take(t)

	rig.send(rig.trunk, netstack.Ethernet{Src: netstack.MAC{2, 0, 0, 0, 0, 9}, VLAN: r.cfg.ContainmentCluster[0].VLAN}, sink, lcInit, 53, 4000, []byte("answer"))
	got := rig.toInitiator()
	if len(got) != 1 || got[0].IP.Src != lcResp2 || !bytes.Equal(got[0].Payload, []byte("answer")) {
		t.Errorf("initiator received %v, want the sink's answer from %v", got, lcResp2)
	}
	if n := newer[0].rec.BytesResp; n != 6 {
		t.Errorf("newer flow counts %d responder bytes, want 6", n)
	}
}

// Three UDP flows of one socket reflected to one sink share one keyActual:
// A's is taken by B, B's by C. Whichever two of them close, in either order,
// the third still owns the key, and the sink's answer reaches the initiator
// in its destination's name; once all three have closed the key is gone.
func TestSharedKeyGoesBackToNearestLiveFlow(t *testing.T) {
	lcResp3 := netstack.MustParseAddr("198.51.100.3")
	dsts := map[string]netstack.Addr{"A": lcResp, "B": lcResp2, "C": lcResp3}
	for _, c := range []struct {
		closes string
		owner  string
	}{
		{"BC", "A"}, {"CB", "A"}, {"AC", "B"}, {"CA", "B"}, {"AB", "C"}, {"BA", "C"},
	} {
		rig := udpIndexRig{newLifecycleRig(t), t}
		r := rig.r
		sink := netstack.MustParseAddr("10.3.0.9")
		sinkVLAN := r.cfg.ContainmentCluster[0].VLAN
		r.RegisterServiceHost(sink, sinkVLAN)
		r.vlanARP[vlanAddr{uint32(sinkVLAN), sink}] = netstack.MAC{2, 0, 0, 0, 0, 9}
		flows := map[string]*Flow{}
		for _, name := range "ABC" {
			dst := dsts[string(name)]
			rig.verdict(rig.open(dst, 53), shim.Reflect, sink, 53)
			got := r.liveFlows(func(f *Flow) bool { return f.respIP == dst })
			if len(got) != 1 {
				t.Fatalf("%d flows to %v, want one", len(got), dst)
			}
			flows[string(name)] = got[0]
		}
		key := flows["A"].keys()[keyActual]
		for _, name := range c.closes {
			flows[string(name)].close("done")
		}
		if got := r.index[key]; got != flows[c.owner] {
			named := "no flow"
			for name, f := range flows {
				if f == got {
					named = name
				}
			}
			t.Errorf("closing %s: the shared key names %s, want %s", c.closes, named, c.owner)
			continue
		}
		rig.trunk.take(t)
		rig.send(rig.trunk, netstack.Ethernet{Src: netstack.MAC{2, 0, 0, 0, 0, 9}, VLAN: sinkVLAN}, sink, lcInit, 53, 4000, []byte("answer"))
		if got := rig.toInitiator(); len(got) != 1 || got[0].IP.Src != dsts[c.owner] {
			t.Errorf("closing %s: initiator received %v, want the sink's answer from %v", c.closes, got, dsts[c.owner])
		}
		flows[c.owner].close("done")
		if _, ok := r.index[key]; ok || r.indexed[keyActual] != 0 {
			t.Errorf("closing all three after %s: key still indexed (%d keyActual)", c.closes, r.indexed[keyActual])
		}
	}
}

// A socket that sends to many destinations, every flow reflected to one
// sink, makes a long list of sharers of one keyActual. Closing them oldest
// first, as the sweep and the LRU shed do, or in a scattered order, leaves
// the key with the newest live flow and no closed flow on the list: a close
// unlinks its flow and walks nothing, so n closes cost O(n).
func TestSharedKeyChurnKeepsOnlyLiveSharers(t *testing.T) {
	const n = 10000
	src, sink := netstack.MustParseAddr("10.0.0.20"), netstack.MustParseAddr("10.3.0.9")
	for _, c := range []struct {
		order string
		step  int // flow i closes at position i*step mod n, step coprime to n
	}{{"oldest first", 1}, {"scattered", 7919}} {
		_, r := newSweepRig(t)
		r.maxFlows = n
		flows := make([]*Flow, n)
		for i := range flows {
			f := r.newFlow(netstack.FlowKey{
				VLAN: 15, SrcIP: src, SrcPort: 5000, DstIP: netstack.AddrFrom4(198, 18, byte(i>>8), byte(i)), DstPort: 53, Proto: netstack.ProtoUDP,
			}, 15, false)
			f.actualIP, f.actualPort = sink, 53
			r.register(f, f.keys()[keyActual])
			flows[i] = f
		}
		key := flows[0].keys()[keyActual]
		newest := n - 1
		for j := range n {
			f := flows[j*c.step%n]
			f.close("done")
			if f.rare.older != nil || f.rare.newer != nil {
				t.Fatalf("%s: close %d left its flow on the sharer list", c.order, j)
			}
			for newest >= 0 && flows[newest].state == fsClosed {
				newest--
			}
			if newest < 0 {
				break
			}
			if owner := r.index[key]; owner != flows[newest] {
				t.Fatalf("%s: after %d closes the key names another flow than the newest live one", c.order, j+1)
			}
			if j%500 != 0 {
				continue
			}
			live := 0
			for f := r.index[key]; f != nil; f = f.rare.older {
				if f.state == fsClosed {
					t.Fatalf("%s: after %d closes a closed flow is reachable from the key's owner", c.order, j+1)
				}
				live++
			}
			if live != n-j-1 {
				t.Fatalf("%s: after %d closes the sharer list holds %d flows, want the %d live ones", c.order, j+1, live, n-j-1)
			}
		}
		if _, ok := r.index[key]; ok || r.indexed[keyActual] != 0 {
			t.Errorf("%s: key still indexed after every sharer closed (%d keyActual)", c.order, r.indexed[keyActual])
		}
	}
}

// A full table sheds the same victim on every run: two UDP flows of one
// socket created at the same instant tie on everything but their
// destination, and the lower destination goes.
func TestShedLRUVictimIsDeterministic(t *testing.T) {
	const runs = 40
	src := netstack.MustParseAddr("10.0.0.20")
	dsts := []netstack.Addr{netstack.MustParseAddr("198.51.100.6"), netstack.MustParseAddr("198.51.100.5")}
	shed := map[netstack.Addr]int{} // victims by destination
	for run := 0; run < runs; run++ {
		_, r := newSweepRig(t)
		r.maxFlows = len(dsts)
		var flows []*Flow
		for _, dst := range dsts {
			flows = append(flows, r.newFlow(netstack.FlowKey{
				VLAN: 15, SrcIP: src, SrcPort: 5000, DstIP: dst, DstPort: 53, Proto: netstack.ProtoUDP,
			}, 15, false))
		}
		r.newFlow(netstack.FlowKey{
			VLAN: 15, SrcIP: src, SrcPort: 5001, DstIP: dsts[0], DstPort: 80, Proto: netstack.ProtoTCP,
		}, 15, false)
		if r.FlowsShed.Value() != 1 {
			t.Fatalf("run %d: flows_shed = %d, want 1", run, r.FlowsShed.Value())
		}
		for _, f := range flows {
			if f.state == fsClosed {
				shed[f.respIP]++
			}
		}
	}
	if len(shed) != 1 || shed[dsts[1]] != runs {
		t.Errorf("victims over %d runs by destination: %v, want the flow to %v every time", runs, shed, dsts[1])
	}
}

// The safety filter's windows count only for a limit that reads them: with
// neither MaxFlowsPerMinute nor MaxFlowsPerDestPerMinute set, an inmate
// opening flows to 1,000 destinations of its choosing leaves both empty.
func TestSafetyWindowsUntouchedWithoutLimits(t *testing.T) {
	rig := udpIndexRig{newLifecycleRig(t), t}
	r := rig.r
	const flows = 1000
	for i := range flows {
		dst := netstack.AddrFrom4(198, 18, byte(i>>8), byte(i))
		rig.send(rig.trunk, netstack.Ethernet{Src: inmateMAC(lcVLAN), VLAN: lcVLAN}, lcInit, dst, 4000, 53, []byte("query"))
	}
	if got := r.FlowsCreated.Value(); got != flows {
		t.Fatalf("flows created %d, want %d", got, flows)
	}
	if len(r.rateAll) != 0 || len(r.rateDest) != 0 {
		t.Fatalf("rate windows hold %d inmates and %d destinations with no limit set", len(r.rateAll), len(r.rateDest))
	}
}

// rateDest is keyed by destinations an inmate chooses, so with a
// per-destination limit set a window counts at most maxRateDests of them:
// past that, a flow to a destination the window does not hold is dropped
// and counted in rate_dest_full, while one it held before the flood still
// gets its limit's worth.
func TestSafetyDestWindowIsBounded(t *testing.T) {
	rig := udpIndexRig{newLifecycleRig(t), t}
	r := rig.r
	r.cfg.MaxFlowsPerDestPerMinute = 2
	send := func(dst netstack.Addr, sport uint16) {
		rig.send(rig.trunk, netstack.Ethernet{Src: inmateMAC(lcVLAN), VLAN: lcVLAN}, lcInit, dst, sport, 53, []byte("query"))
	}
	held := netstack.AddrFrom4(198, 51, 100, 7)
	send(held, 4000)
	const flood = maxRateDests + 1000
	for i := range flood {
		send(netstack.AddrFrom4(198, 18, byte(i>>8), byte(i)), 4000)
	}
	if n := len(r.rateDest); n != maxRateDests {
		t.Fatalf("rateDest holds %d destinations after a flood of %d, bound is %d", n, flood, maxRateDests)
	}
	refused := rig.s.Obs().Snapshot().Counter("subfarm.lifetime.rate_dest_full")
	if want := uint64(1 + flood - maxRateDests); refused != want || r.SafetyDrops.Value() != want {
		t.Fatalf("rate_dest_full = %d, safety drops %d after the flood, want %d of each", refused, r.SafetyDrops.Value(), want)
	}
	created := r.FlowsCreated.Value()
	send(held, 4001) // its second flow this window: admitted
	send(held, 4002) // its third: over the limit
	if got := r.FlowsCreated.Value(); got != created+1 || r.SafetyDrops.Value() != refused+1 {
		t.Fatalf("a destination held before the flood: %d flows admitted of 2, %d dropped; want 1 and 1",
			got-created, r.SafetyDrops.Value()-refused)
	}
	// The next window starts empty.
	rig.s.RunFor(time.Minute)
	send(netstack.AddrFrom4(198, 19, 0, 1), 4000)
	if len(r.rateDest) != 1 {
		t.Fatalf("rateDest holds %d destinations in a fresh window, want 1", len(r.rateDest))
	}
}
