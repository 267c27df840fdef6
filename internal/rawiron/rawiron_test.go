package rawiron

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/inmate"
	"gq/internal/netstack"
	"gq/internal/sim"
)

func machine(s *sim.Simulator, name string, port int) *Machine {
	return &Machine{
		Name: name, VLAN: uint16(30 + port), PowerPort: port,
		Host: host.New(s, name, netstack.MAC{2, 0, 0, 1, 0, byte(port)}),
	}
}

func TestReimageCycle(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)

	done := false
	if err := c.Reimage(m, "winxp-sp2-clean", func(err error) { done = err == nil }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(20 * time.Minute)
	if !done {
		t.Fatal("reimage never completed")
	}
	if m.DiskImage != "winxp-sp2-clean" || m.State != Running {
		t.Fatalf("image %q state %v", m.DiskImage, m.State)
	}
	if m.NetbootEnabled {
		t.Fatal("netboot left enabled after reimage")
	}
	if c.Reimages != 1 || c.Seq.Cycles != 2 {
		t.Fatalf("reimages=%d cycles=%d", c.Reimages, c.Seq.Cycles)
	}
	if m.Busy() {
		t.Fatal("machine still owned after completion")
	}
}

func TestReimageDurationPrecise(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)
	var took time.Duration
	start := s.Now()
	c.Reimage(m, "img", func(error) { took = s.Now() - start })
	s.RunFor(30 * time.Minute)
	if took < 5*time.Minute || took > 8*time.Minute {
		t.Fatalf("single reimage took %v, paper reports around 6 minutes", took)
	}
}

func TestHiddenPartitionParallelRestore(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	var machines []*Machine
	for i := 1; i <= 6; i++ {
		m := machine(s, "iron", i)
		m.HiddenImage = "winxp-hidden"
		c.AddMachine(m)
		machines = append(machines, m)
	}
	var took time.Duration
	failed := -1
	start := s.Now()
	c.RestoreFromHiddenPartition(machines, func(f int) { took = s.Now() - start; failed = f })
	s.RunFor(time.Hour)
	if took == 0 {
		t.Fatal("restore never completed")
	}
	if failed != 0 {
		t.Fatalf("restore reported %d failures", failed)
	}
	// ~10 minutes, and crucially: parallel — 6 machines take about as long
	// as one, not 6x (restores read local disk, not the shared trunk).
	if took < 8*time.Minute || took > 14*time.Minute {
		t.Fatalf("parallel restore took %v, paper reports around 10 minutes", took)
	}
	for _, m := range machines {
		if m.DiskImage != "winxp-hidden" || m.State != Running {
			t.Fatalf("machine %s image %q state %v", m.Name, m.DiskImage, m.State)
		}
	}
	if c.Reimages != 6 {
		t.Fatalf("reimages %d", c.Reimages)
	}
}

func TestRestoreSkipsMachinesWithoutHiddenImage(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m) // no hidden image
	done := false
	c.RestoreFromHiddenPartition([]*Machine{m}, func(int) { done = true })
	s.RunFor(time.Minute)
	if !done {
		t.Fatal("restore with nothing to do should complete immediately")
	}
}

func TestCaptureImage(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)
	captured := false
	if err := c.CaptureImage(m, "golden-2011-06", func(err error) { captured = err == nil }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(30 * time.Minute)
	if !captured || c.Captures != 1 || m.State != Running {
		t.Fatalf("captured %v captures %d state %v", captured, c.Captures, m.State)
	}
}

func TestCaptureTransitionsMatchReimage(t *testing.T) {
	// Capture uses the same netboot mechanism as reimage, so its
	// transition log must read identically (it used to skip Imaging).
	s := sim.New(1)
	c := NewController(s, Config{})
	a, b := machine(s, "iron-a", 1), machine(s, "iron-b", 2)
	c.AddMachine(a)
	c.AddMachine(b)
	c.Reimage(a, "img", nil)
	c.CaptureImage(b, "golden", nil)
	s.RunFor(30 * time.Minute)
	if !reflect.DeepEqual(a.Transitions, b.Transitions) {
		t.Fatalf("transition logs differ:\nreimage: %v\ncapture: %v", a.Transitions, b.Transitions)
	}
	want := []string{"running", "netboot", "imaging", "localboot", "running"}
	if !reflect.DeepEqual(a.Transitions, want) {
		t.Fatalf("transitions %v, want %v", a.Transitions, want)
	}
}

func TestOverlappingOperationsRejected(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	m.HiddenImage = "hidden"
	c.AddMachine(m)

	if err := c.Reimage(m, "img", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CaptureImage(m, "golden", nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("overlapping capture: err %v, want ErrBusy", err)
	}
	if err := c.Reimage(m, "img2", nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("overlapping reimage: err %v, want ErrBusy", err)
	}
	failed := -1
	c.RestoreFromHiddenPartition([]*Machine{m}, func(f int) { failed = f })
	if failed != 1 {
		t.Fatalf("overlapping restore should fail immediately, failed=%d", failed)
	}
	s.RunFor(20 * time.Minute)
	if m.State != Running || m.DiskImage != "img" || c.Reimages != 1 {
		t.Fatalf("first operation corrupted: state %v image %q reimages %d",
			m.State, m.DiskImage, c.Reimages)
	}
	// The box is idle again: new admissions succeed.
	if err := c.CaptureImage(m, "golden", nil); err != nil {
		t.Fatalf("post-completion capture rejected: %v", err)
	}
}

func TestUnregisteredMachineRejected(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "ghost", 1)
	if err := c.Reimage(m, "img", nil); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("err %v, want ErrUnknownMachine", err)
	}
}

func TestPowerSequencer(t *testing.T) {
	s := sim.New(1)
	p := NewPowerSequencer(s)
	p.PowerOn(3)
	if !p.On(3) || p.On(4) {
		t.Fatal("power state wrong")
	}
	cycled := false
	p.Cycle(3, func() { cycled = true })
	if p.On(3) {
		t.Fatal("port should be off mid-cycle")
	}
	s.RunFor(10 * time.Second)
	if !cycled || !p.On(3) {
		t.Fatal("cycle did not complete")
	}
}

func TestPowerSequencerOverlapSerializes(t *testing.T) {
	// Two Cycle commands on one port must serialize, not interleave: the
	// second runs after the first completes, and both callbacks fire.
	s := sim.New(1)
	p := NewPowerSequencer(s)
	p.PowerOn(3)
	var first, second time.Duration
	p.Cycle(3, func() { first = s.Now() })
	p.Cycle(3, func() { second = s.Now() })
	if p.Cycles != 1 {
		t.Fatalf("second cycle should queue, not start: cycles=%d", p.Cycles)
	}
	s.RunFor(10 * time.Second)
	if first == 0 || second == 0 {
		t.Fatalf("callbacks did not both fire: first=%v second=%v", first, second)
	}
	if second <= first {
		t.Fatalf("cycles interleaved: first done %v, second done %v", first, second)
	}
	if p.Cycles != 2 || !p.On(3) {
		t.Fatalf("cycles=%d on=%v after both complete", p.Cycles, p.On(3))
	}
}

// runUntil steps the sim in small increments until cond holds (or the
// budget runs out), so fault tests don't depend on exact failure timing.
func runUntil(t *testing.T, s *sim.Simulator, budget time.Duration, cond func() bool) {
	t.Helper()
	for end := s.Now() + budget; s.Now() < end; {
		if cond() {
			return
		}
		s.RunFor(5 * time.Second)
	}
	if !cond() {
		t.Fatal("condition never held within budget")
	}
}

// retryTest injects one fault kind at probability 1, waits for the first
// failed attempt, clears faults, and demands the retry completes the
// reimage.
func retryTest(t *testing.T, f Faults, kind string) {
	t.Helper()
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)
	c.InjectFaults(f)
	var opErr error
	done := false
	if err := c.Reimage(m, "clean", func(err error) { done = true; opErr = err }); err != nil {
		t.Fatal(err)
	}
	runUntil(t, s, time.Hour, func() bool { return c.Failures >= 1 })
	c.ClearFaults()
	s.RunFor(30 * time.Minute)
	if !done || opErr != nil {
		t.Fatalf("%s: reimage did not recover: done=%v err=%v", kind, done, opErr)
	}
	if m.State != Running || m.DiskImage != "clean" {
		t.Fatalf("%s: state %v image %q", kind, m.State, m.DiskImage)
	}
	if c.Retries < 1 || m.Retries < 1 {
		t.Fatalf("%s: retries not recorded: controller %d machine %d", kind, c.Retries, m.Retries)
	}
	if c.FaultsInjected < 1 {
		t.Fatalf("%s: injected faults not recorded", kind)
	}
	if c.Failures != c.Retries+c.Quarantines {
		t.Fatalf("%s: failures=%d retries=%d quarantines=%d", kind, c.Failures, c.Retries, c.Quarantines)
	}
	if !c.Seq.On(m.PowerPort) {
		t.Fatalf("%s: power port left off", kind)
	}
}

func TestNetbootHangRetries(t *testing.T) {
	retryTest(t, Faults{NetbootHang: 1}, FaultNetbootHang)
}

func TestTransferStallRetries(t *testing.T) {
	retryTest(t, Faults{TransferStall: 1}, FaultTransferStall)
}

func TestTransferCorruptRetries(t *testing.T) {
	retryTest(t, Faults{TransferCorrupt: 1}, FaultTransferCorrupt)
}

func TestPowerStickRetries(t *testing.T) {
	retryTest(t, Faults{PowerStick: 1}, FaultPowerStick)
}

func TestBreakerQuarantine(t *testing.T) {
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)
	c.InjectFaults(Faults{NetbootHang: 1}) // every attempt hangs

	var opErr error
	if err := c.Reimage(m, "clean", func(err error) { opErr = err }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Hour)
	if m.State != Quarantined {
		t.Fatalf("breaker never tripped: state %v after %d failures", m.State, c.Failures)
	}
	if !errors.Is(opErr, ErrQuarantined) {
		t.Fatalf("operation reported %v, want ErrQuarantined", opErr)
	}
	if c.Quarantines != 1 || m.Busy() {
		t.Fatalf("quarantines=%d busy=%v", c.Quarantines, m.Busy())
	}
	if c.Failures != c.Retries+c.Quarantines {
		t.Fatalf("failures=%d retries=%d quarantines=%d", c.Failures, c.Retries, c.Quarantines)
	}
	if c.Seq.On(m.PowerPort) {
		t.Fatal("quarantined box left powered")
	}
	// A quarantined box stays quarantined: it rejects new work for the run.
	if err := c.Reimage(m, "clean", nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err %v, want ErrQuarantined", err)
	}
}

func TestTrunkContention(t *testing.T) {
	// Two concurrent reimages share the PXE/TFTP trunk: each transfer
	// runs at half rate, so both take roughly twice a solo transfer.
	solo := func() time.Duration {
		s := sim.New(1)
		c := NewController(s, Config{})
		m := machine(s, "iron0", 1)
		c.AddMachine(m)
		var took time.Duration
		start := s.Now()
		c.Reimage(m, "img", func(error) { took = s.Now() - start })
		s.RunFor(time.Hour)
		return took
	}()

	s := sim.New(1)
	c := NewController(s, Config{})
	a, b := machine(s, "iron-a", 1), machine(s, "iron-b", 2)
	c.AddMachine(a)
	c.AddMachine(b)
	var tookA, tookB time.Duration
	start := s.Now()
	c.Reimage(a, "img", func(error) { tookA = s.Now() - start })
	c.Reimage(b, "img", func(error) { tookB = s.Now() - start })
	if c.ActiveTransfers() != 0 {
		t.Fatalf("transfers active before netboot: %d", c.ActiveTransfers())
	}
	s.RunFor(time.Hour)
	if tookA == 0 || tookB == 0 {
		t.Fatal("contended reimages never completed")
	}
	if c.ActiveTransfers() != 0 {
		t.Fatalf("%d transfers leaked", c.ActiveTransfers())
	}
	// The transfer is the dominant phase; contention should land both
	// well past 1.5x solo but under 2.5x.
	for _, took := range []time.Duration{tookA, tookB} {
		if took < solo*3/2 || took > solo*5/2 {
			t.Fatalf("contended reimage took %v (solo %v): trunk not shared realistically", took, solo)
		}
	}
}

func TestMaxConcurrentQueuesFIFO(t *testing.T) {
	// At most two netboot operations run at once: a third reimage queues
	// until a slot frees, so the trunk never carries more than two
	// transfers, and the queued box then runs uncontended.
	s := sim.New(1)
	c := NewController(s, Config{})
	var boxes []*Machine
	for i, name := range []string{"iron-a", "iron-b", "iron-c"} {
		m := machine(s, name, i+1)
		c.AddMachine(m)
		boxes = append(boxes, m)
	}
	done := make([]time.Duration, len(boxes))
	start := s.Now()
	for i, m := range boxes {
		c.Reimage(m, "img", func(error) { done[i] = s.Now() - start })
	}
	peak := 0
	for s.Now() < time.Hour {
		s.RunFor(5 * time.Second)
		peak = max(peak, c.ActiveTransfers())
	}
	if done[0] == 0 || done[1] == 0 || done[2] == 0 {
		t.Fatalf("reimages never completed: %v", done)
	}
	if peak != 2 {
		t.Fatalf("peak concurrent transfers %d, want the bound of 2", peak)
	}
	// The third starts only when the first slot frees, then takes about a
	// solo reimage (5–8 minutes) on a trunk it shares with no one.
	first := min(done[0], done[1])
	if took := done[2] - first; took < 5*time.Minute || took > 8*time.Minute {
		t.Fatalf("queued reimage finished %v after the first slot freed (done %v)", took, done)
	}
}

func TestRawIronBackendRevert(t *testing.T) {
	// The inmate life-cycle drives a full reimage transparently.
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)
	b := &Backend{Controller: c, Machine: m, CleanImage: "clean"}
	im := inmate.New(s, "iron-inmate", 31, m.Host, b)
	im.Start()
	s.RunFor(time.Minute)
	if im.State != inmate.StateRunning {
		t.Fatalf("state %v", im.State)
	}
	im.Revert()
	s.RunFor(3 * time.Minute)
	if im.State != inmate.StateReverting {
		t.Fatalf("reimage should still be in progress at 3min: %v", im.State)
	}
	s.RunFor(10 * time.Minute)
	if im.State != inmate.StateRunning || m.DiskImage != "clean" {
		t.Fatalf("state %v image %q", im.State, m.DiskImage)
	}
	if b.Kind() != "raw-iron" {
		t.Error("kind wrong")
	}
}

func TestBackendRevertQuarantineReachesOnFail(t *testing.T) {
	// A breaker trip mid-revert must surface through OnFail instead of
	// leaving the inmate wedged in StateReverting forever.
	s := sim.New(1)
	c := NewController(s, Config{})
	m := machine(s, "iron0", 1)
	c.AddMachine(m)
	var failErr error
	b := &Backend{Controller: c, Machine: m, CleanImage: "clean",
		OnFail: func(_ *inmate.Inmate, err error) { failErr = err }}
	im := inmate.New(s, "iron-inmate", 31, m.Host, b)
	im.Start()
	s.RunFor(time.Minute)
	c.InjectFaults(Faults{NetbootHang: 1})
	im.Revert()
	s.RunFor(time.Hour)
	if !errors.Is(failErr, ErrQuarantined) {
		t.Fatalf("OnFail got %v, want ErrQuarantined", failErr)
	}
	if m.State != Quarantined {
		t.Fatalf("machine state %v", m.State)
	}
}
