package netsim

import (
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

func frameTo(dst, src netstack.MAC, vlan uint16, payload string) []byte {
	eth := netstack.Ethernet{Dst: dst, Src: src, VLAN: vlan, EtherType: netstack.EtherTypeIPv4}
	return append(eth.Marshal(nil), payload...)
}

func mac(n byte) netstack.MAC { return netstack.MAC{2, 0, 0, 0, 0, n} }

type collector struct {
	frames [][]byte
	port   *Port
}

func newCollector(s *sim.Simulator, name string) *collector {
	c := &collector{}
	c.port = NewPort(s, name, func(f []byte) { c.frames = append(c.frames, f) })
	return c
}

func (c *collector) payloads() []string {
	var out []string
	for _, f := range c.frames {
		var eth netstack.Ethernet
		rest, err := eth.Unmarshal(f)
		if err != nil {
			out = append(out, "ERR")
			continue
		}
		out = append(out, string(rest))
	}
	return out
}

func TestLinkDelivery(t *testing.T) {
	s := sim.New(1)
	a := NewPort(s, "a", nil)
	b := newCollector(s, "b")
	Connect(a, b.port, time.Millisecond)
	a.Send([]byte("hello"))
	s.Run()
	if s.Now() != time.Millisecond {
		t.Errorf("latency not applied: now=%v", s.Now())
	}
	if len(b.frames) != 1 || string(b.frames[0]) != "hello" {
		t.Fatalf("frames %q", b.frames)
	}
	if a.TxFrames != 1 || b.port.RxFrames != 1 || a.TxBytes != 5 {
		t.Errorf("counters tx=%d rx=%d txb=%d", a.TxFrames, b.port.RxFrames, a.TxBytes)
	}
}

func TestLinkDown(t *testing.T) {
	s := sim.New(1)
	a := NewPort(s, "a", nil)
	b := newCollector(s, "b")
	Connect(a, b.port, 0)
	b.port.SetUp(false)
	a.Send([]byte("x"))
	s.Run()
	if len(b.frames) != 0 {
		t.Error("downed port received frame")
	}
	a.SetUp(false)
	a.Send([]byte("y"))
	b.port.SetUp(true)
	s.Run()
	if len(b.frames) != 0 {
		t.Error("downed sender transmitted frame")
	}
}

func TestLinkLoss(t *testing.T) {
	s := sim.New(1)
	a := NewPort(s, "a", nil)
	b := newCollector(s, "b")
	Connect(a, b.port, 0)
	a.Loss = 0.5
	for i := 0; i < 1000; i++ {
		a.Send([]byte("x"))
	}
	s.Run()
	if n := len(b.frames); n < 400 || n > 600 {
		t.Errorf("50%% loss delivered %d/1000", n)
	}
}

// TestCrossDomainConnectBoundary pins the single-source-of-truth contract
// between wire latency and synchronization: a cross-domain link at exactly
// TrunkLatency (= the coordinator lookahead) is legal, one nanosecond less
// panics, and a frame over the trunk arrives after exactly TrunkLatency.
func TestCrossDomainConnectBoundary(t *testing.T) {
	root := sim.New(1)
	c := sim.NewCoordinator(root, TrunkLatency, 2)
	d := c.NewDomain()

	a := NewPort(root, "a", nil)
	var arrived time.Duration
	b := NewPort(d, "b", func(f []byte) { arrived = d.Now() })
	Connect(a, b, TrunkLatency) // exactly the floor: must not panic
	root.Schedule(0, func() { a.Send([]byte("x")) })
	c.RunUntil(5 * TrunkLatency)
	if arrived != TrunkLatency {
		t.Fatalf("trunk frame arrived at %v, want %v", arrived, TrunkLatency)
	}

	defer func() {
		if recover() == nil {
			t.Error("cross-domain link below TrunkLatency did not panic")
		}
	}()
	Connect(NewPort(root, "a2", nil), NewPort(d, "b2", nil), TrunkLatency-time.Nanosecond)
}

func TestDoubleConnectPanics(t *testing.T) {
	s := sim.New(1)
	a, b, c := NewPort(s, "a", nil), NewPort(s, "b", nil), NewPort(s, "c", nil)
	Connect(a, b, 0)
	defer func() {
		if recover() == nil {
			t.Error("double connect did not panic")
		}
	}()
	Connect(a, c, 0)
}

// buildSwitch wires n collectors to access ports on distinct VLANs given by
// vlans[i], returning them.
func buildSwitch(s *sim.Simulator, vlans []uint16) (*Switch, []*collector) {
	sw := NewSwitch(s, "sw0")
	var hosts []*collector
	for i, v := range vlans {
		h := newCollector(s, string(rune('a'+i)))
		Connect(sw.AddAccessPort(h.port.Name, v), h.port, 0)
		hosts = append(hosts, h)
	}
	return sw, hosts
}

func TestSwitchFloodWithinVLAN(t *testing.T) {
	s := sim.New(1)
	_, hosts := buildSwitch(s, []uint16{10, 10, 20})
	// Unknown unicast from host0 floods VLAN 10 only.
	hosts[0].port.Send(frameTo(mac(99), mac(1), 0, "v10"))
	s.Run()
	if len(hosts[1].frames) != 1 {
		t.Error("same-VLAN host did not receive flooded frame")
	}
	if len(hosts[2].frames) != 0 {
		t.Error("frame leaked across VLANs")
	}
	if len(hosts[0].frames) != 0 {
		t.Error("frame echoed to ingress port")
	}
}

func TestSwitchLearning(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildSwitch(s, []uint16{10, 10, 10})
	// host1 announces itself.
	hosts[1].port.Send(frameTo(netstack.BroadcastMAC, mac(2), 0, "hi"))
	s.Run()
	if sw.FDBSize() != 1 {
		t.Fatalf("FDB size %d", sw.FDBSize())
	}
	// Now host0 -> mac(2) should be forwarded, not flooded.
	flooded := sw.Flooded.Value()
	hosts[0].port.Send(frameTo(mac(2), mac(1), 0, "direct"))
	s.Run()
	if sw.Flooded.Value() != flooded {
		t.Error("known unicast was flooded")
	}
	if got := hosts[1].payloads(); len(got) != 1 || got[0] != "direct" {
		t.Fatalf("host1 got %q", got)
	}
	if len(hosts[2].frames) != 1 { // only the initial broadcast
		t.Errorf("host2 got %d frames, want 1", len(hosts[2].frames))
	}
}

func TestSwitchTrunkTagging(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildSwitch(s, []uint16{10, 20})
	trunk := newCollector(s, "trunk")
	Connect(sw.AddTrunkPort("uplink"), trunk.port, 0)

	// Broadcast from each access host should arrive on the trunk tagged.
	hosts[0].port.Send(frameTo(netstack.BroadcastMAC, mac(1), 0, "from10"))
	hosts[1].port.Send(frameTo(netstack.BroadcastMAC, mac(2), 0, "from20"))
	s.Run()
	if len(trunk.frames) != 2 {
		t.Fatalf("trunk got %d frames", len(trunk.frames))
	}
	var vlans []uint16
	for _, f := range trunk.frames {
		var eth netstack.Ethernet
		if _, err := eth.Unmarshal(f); err != nil {
			t.Fatal(err)
		}
		vlans = append(vlans, eth.VLAN)
	}
	if vlans[0] != 10 || vlans[1] != 20 {
		t.Fatalf("trunk VLANs %v", vlans)
	}

	// Tagged frame from the trunk reaches only the matching access port,
	// untagged.
	trunk.port.Send(frameTo(netstack.BroadcastMAC, mac(9), 20, "to20"))
	s.Run()
	if len(hosts[0].frames) != 0 {
		t.Error("VLAN 20 frame reached VLAN 10 host")
	}
	if got := hosts[1].payloads(); len(got) != 1 || got[0] != "to20" {
		t.Fatalf("VLAN 20 host got %q", got)
	}
	var eth netstack.Ethernet
	if _, err := eth.Unmarshal(hosts[1].frames[0]); err != nil {
		t.Fatal(err)
	}
	if eth.VLAN != netstack.NoVLAN {
		t.Error("access egress not untagged")
	}
}

func TestSwitchDropsMismatchedTagging(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildSwitch(s, []uint16{10, 10})
	trunk := newCollector(s, "trunk")
	Connect(sw.AddTrunkPort("uplink"), trunk.port, 0)

	// Tagged frame into an access port: dropped.
	hosts[0].port.Send(frameTo(netstack.BroadcastMAC, mac(1), 10, "tagged-on-access"))
	// Untagged frame into a trunk: dropped.
	trunk.port.Send(frameTo(netstack.BroadcastMAC, mac(2), 0, "untagged-on-trunk"))
	s.Run()
	if len(hosts[1].frames) != 0 || len(trunk.frames) != 0 {
		t.Error("mismatched tagging forwarded")
	}
	_ = sw
}

func TestSwitchTap(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildSwitch(s, []uint16{10, 10})
	var tapped int
	sw.AddTap(func(frame []byte) {
		tapped++
		var eth netstack.Ethernet
		if _, err := eth.Unmarshal(frame); err != nil {
			t.Errorf("tap saw malformed frame: %v", err)
		} else if eth.VLAN != 10 {
			t.Errorf("tap frame not in internal tagged form (vlan=%d)", eth.VLAN)
		}
	})
	hosts[0].port.Send(frameTo(netstack.BroadcastMAC, mac(1), 0, "x"))
	s.Run()
	if tapped != 1 {
		t.Errorf("tap saw %d frames", tapped)
	}
}

func TestSwitchMalformedFrameDropped(t *testing.T) {
	s := sim.New(1)
	_, hosts := buildSwitch(s, []uint16{10, 10})
	hosts[0].port.Send([]byte{1, 2, 3})
	s.Run()
	if len(hosts[1].frames) != 0 {
		t.Error("malformed frame forwarded")
	}
}

// VLAN isolation ablation (DESIGN.md §4): on a shared segment, traffic from
// one host reaches another; with per-inmate VLANs it cannot.
func TestVLANIsolationAblation(t *testing.T) {
	s := sim.New(1)
	// Shared segment: both on VLAN 10.
	_, shared := buildSwitch(s, []uint16{10, 10})
	shared[0].port.Send(frameTo(netstack.BroadcastMAC, mac(1), 0, "worm"))
	s.Run()
	if len(shared[1].frames) != 1 {
		t.Fatal("shared segment should deliver")
	}
	// Isolated: distinct VLANs.
	_, iso := buildSwitch(s, []uint16{11, 12})
	iso[0].port.Send(frameTo(netstack.BroadcastMAC, mac(1), 0, "worm"))
	s.Run()
	if len(iso[1].frames) != 0 {
		t.Fatal("per-inmate VLANs must isolate")
	}
}

func TestSendCopiesSendOwnedDoesNot(t *testing.T) {
	s := sim.New(1)
	a := NewPort(s, "a", nil)
	b := newCollector(s, "b")
	Connect(a, b.port, time.Millisecond)

	buf := []byte("copied")
	a.Send(buf)
	buf[0] = 'X' // caller keeps ownership after Send: mutation must not leak
	s.Run()
	if string(b.frames[0]) != "copied" {
		t.Fatalf("Send did not copy: delivered %q", b.frames[0])
	}

	owned := []byte("owned!")
	a.SendOwned(owned)
	s.Run()
	if len(b.frames) != 2 || string(b.frames[1]) != "owned!" {
		t.Fatalf("SendOwned delivery %q", b.frames)
	}
	if &b.frames[1][0] != &owned[0] {
		t.Fatal("SendOwned copied the buffer; ownership transfer should be zero-copy")
	}
	if a.TxFrames != 2 || b.port.RxFrames != 2 {
		t.Errorf("counters tx=%d rx=%d", a.TxFrames, b.port.RxFrames)
	}
}

func TestSendOwnedRespectsLossAndDown(t *testing.T) {
	s := sim.New(1)
	a := NewPort(s, "a", nil)
	b := newCollector(s, "b")
	Connect(a, b.port, time.Millisecond)
	a.Loss = 1.0
	a.SendOwned([]byte("dropped"))
	s.Run()
	if len(b.frames) != 0 {
		t.Fatal("lossy SendOwned delivered")
	}
	a.Loss = 0
	a.SetUp(false)
	a.SendOwned([]byte("down"))
	s.Run()
	if len(b.frames) != 0 {
		t.Fatal("downed SendOwned delivered")
	}
}
