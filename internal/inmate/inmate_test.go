package inmate

import (
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

func newInmate(s *sim.Simulator, vlan uint16) *Inmate {
	h := host.New(s, "inmate", netstack.MAC{2, 0, 0, 0, 0, byte(vlan)})
	return New(s, vlan, h, &VMBackend{Sim: s})
}

func TestLifecycleStartStop(t *testing.T) {
	s := sim.New(1)
	im := newInmate(s, 16)
	boots := 0
	im.OnBoot = func(*Inmate) { boots++ }
	im.Start()
	if im.State != StateBooting {
		t.Fatalf("state %v", im.State)
	}
	s.RunFor(5 * time.Second)
	if im.State != StateRunning || boots != 1 {
		t.Fatalf("state %v boots %d", im.State, boots)
	}
	im.Stop()
	if im.State != StateStopped {
		t.Fatalf("state %v", im.State)
	}
	// Start is idempotent while booting/running.
	im.Start()
	s.RunFor(5 * time.Second)
	if boots != 2 {
		t.Fatalf("boots %d", boots)
	}
}

func TestRevertIncrementsGeneration(t *testing.T) {
	s := sim.New(1)
	im := newInmate(s, 16)
	var bootGens []int
	im.OnBoot = func(i *Inmate) { bootGens = append(bootGens, i.Generation) }
	im.Start()
	s.RunFor(5 * time.Second)
	im.Revert()
	if im.State != StateReverting {
		t.Fatalf("state %v", im.State)
	}
	s.RunFor(time.Minute)
	if im.State != StateRunning || im.Generation != 1 {
		t.Fatalf("state %v gen %d", im.State, im.Generation)
	}
	if len(bootGens) != 2 || bootGens[0] != 0 || bootGens[1] != 1 {
		t.Fatalf("boot generations %v", bootGens)
	}
}

func TestRebootKeepsGeneration(t *testing.T) {
	s := sim.New(1)
	im := newInmate(s, 16)
	im.Start()
	s.RunFor(5 * time.Second)
	im.Reboot()
	s.RunFor(time.Minute)
	if im.Generation != 0 || im.State != StateRunning {
		t.Fatalf("gen %d state %v", im.Generation, im.State)
	}
}

func TestTerminateIsFinal(t *testing.T) {
	s := sim.New(1)
	im := newInmate(s, 16)
	terminated := false
	im.OnTerminate = func(*Inmate) { terminated = true }
	im.Start()
	s.RunFor(5 * time.Second)
	im.Terminate()
	if !terminated || im.State != StateTerminated {
		t.Fatalf("state %v", im.State)
	}
	im.Start()
	im.Revert()
	s.RunFor(time.Minute)
	if im.State != StateTerminated {
		t.Fatalf("terminated inmate resurrected: %v", im.State)
	}
}

func TestQEMUBackendSlower(t *testing.T) {
	s := sim.New(1)
	vm := &VMBackend{Sim: s}
	q := &QEMUBackend{Sim: s}
	if q.BootDelay() <= vm.BootDelay() {
		t.Error("QEMU should boot slower than ESX-class VMs")
	}
}

func TestVLANPool(t *testing.T) {
	p := NewVLANPool(16, 19)
	seen := map[uint16]bool{}
	for i := 0; i < 4; i++ {
		v, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("duplicate VLAN %d", v)
		}
		seen[v] = true
	}
	if _, err := p.Allocate(); err == nil {
		t.Fatal("exhausted pool allocated")
	}
	p.Release(17)
	v, err := p.Allocate()
	if err != nil || v != 17 {
		t.Fatalf("release/realloc got %d, %v", v, err)
	}
	if len(p.used) != 4 {
		t.Fatalf("in use %d", len(p.used))
	}
}

// mgmt builds a management network: controller host + containment-server
// host.
func mgmt(t *testing.T) (*sim.Simulator, *Controller, *host.Host, *host.Host) {
	t.Helper()
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "mgmt")
	ctlHost := host.New(s, "controller", netstack.MAC{2, 0, 0, 0, 9, 1})
	csHost := host.New(s, "cs-mgmt", netstack.MAC{2, 0, 0, 0, 9, 2})
	netsim.Connect(sw.AddAccessPort("ctl", 999), ctlHost.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("cs", 999), csHost.NIC(), 0)
	ctlHost.ConfigureStatic(netstack.MustParseAddr("172.16.0.1"), 24, 0)
	csHost.ConfigureStatic(netstack.MustParseAddr("172.16.0.2"), 24, 0)
	ctl, err := NewController(ctlHost)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl, ctlHost, csHost
}

func TestControllerProtocol(t *testing.T) {
	s, ctl, ctlHost, csHost := mgmt(t)
	im := newInmate(s, 16)
	ctl.Register(im)
	im.Start()
	s.RunFor(5 * time.Second)

	var reply string
	SendAction(csHost, ctlHost, "revert", 16, func(r string) { reply = r })
	s.RunFor(time.Minute)
	if reply != "OK" {
		t.Fatalf("reply %q", reply)
	}
	if im.Generation != 1 || im.State != StateRunning {
		t.Fatalf("revert not applied: gen=%d state=%v", im.Generation, im.State)
	}
	if ctl.Actions != 1 {
		t.Fatalf("controller handled %d actions, want the one revert", ctl.Actions)
	}
}

func TestControllerErrors(t *testing.T) {
	s, _, ctlHost, csHost := mgmt(t)
	var replies []string
	collect := func(r string) { replies = append(replies, r) }
	SendAction(csHost, ctlHost, "revert", 99, collect)  // unknown VLAN
	SendAction(csHost, ctlHost, "explode", 16, collect) // unknown verb
	s.RunFor(time.Minute)
	if len(replies) != 2 {
		t.Fatalf("replies %v", replies)
	}
	for _, r := range replies {
		if !strings.HasPrefix(r, "ERR") {
			t.Errorf("reply %q, want ERR", r)
		}
	}
}

func TestControllerMalformedLine(t *testing.T) {
	s, ctl, _, _ := mgmt(t)
	if got := ctl.handleLine("MAKE ME A SANDWICH"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("reply %q", got)
	}
	if got := ctl.handleLine("ACTION revert VLAN banana"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("reply %q", got)
	}
	_ = s
}
