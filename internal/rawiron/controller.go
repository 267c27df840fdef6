package rawiron

import (
	"fmt"
	"time"

	"gq/internal/obs"
	"gq/internal/sim"
)

// opKind selects which lifecycle operation an admission runs.
type opKind int

const (
	opReimage opKind = iota
	opCapture
	opRestore
)

var opNames = [...]string{"reimage", "capture", "restore"}

func (k opKind) String() string { return opNames[k] }

// operation is one admitted lifecycle operation on one machine. It owns
// the box (Machine.op) from admission until completion, quarantine, or —
// never — a silent wedge: every stage arms a deadline, so the operation
// always reaches a terminal outcome.
type operation struct {
	kind  opKind
	m     *Machine
	image string // installed on success (reimage/restore), captured name (capture)
	done  func(error)

	started time.Duration // admission time, for the reimage_ms histogram
	attempt int
	slotted bool // holds one of the maxConcurrent netboot slots

	// gen invalidates stale stage callbacks: every stage start and every
	// attempt failure bumps it, so callbacks from a superseded attempt
	// fall through harmlessly (the supervisor's generation idiom).
	gen      int
	stage    string
	deadline *sim.Event
	xfer     *transfer
}

// Controller is the Raw Iron Controller: a supervised state machine over
// the farm's physical boxes. All methods must run on the controller's
// simulation-domain goroutine.
type Controller struct {
	Sim *sim.Simulator
	Seq *PowerSequencer
	Cfg Config

	machines []*Machine // registration order, for deterministic listings
	byName   map[string]*Machine

	trunk  *trunk
	faults Faults

	// FIFO queue for netboot operations beyond maxConcurrent.
	active  int
	waiting []*operation

	// Completed-operation and failure accounting.
	Reimages, Captures             int
	Failures, Retries, Quarantines int
	FaultsInjected                 int

	retriesC     *obs.Counter
	quarantinedC *obs.Counter
	faultsC      *obs.Counter
	reimageMS    *obs.Histogram
}

// NewController creates a controller; zero Config fields select the
// defaults.
func NewController(s *sim.Simulator, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	reg := s.Obs().Reg
	return &Controller{
		Sim: s, Seq: NewPowerSequencer(s), Cfg: cfg,
		byName:       make(map[string]*Machine),
		trunk:        newTrunk(s, cfg.TrunkMBps),
		retriesC:     reg.Counter("rawiron.retries"),
		quarantinedC: reg.Counter("rawiron.quarantined"),
		faultsC:      reg.Counter("rawiron.faults_injected"),
		reimageMS: reg.Histogram("rawiron.reimage_ms",
			60000, 120000, 240000, 360000, 480000, 600000, 900000, 1800000, 3600000),
	}
}

// AddMachine registers a box with the controller and its power port.
func (c *Controller) AddMachine(m *Machine) {
	c.byName[m.Name] = m
	c.machines = append(c.machines, m)
	m.sc = c.Sim.Obs().Scope(obs.EvRawIronPrefix+m.Name, obs.DefaultRingSize)
	m.ladder = sim.NewLadder(c.Sim, sim.LadderConfig{
		Backoff: retryBackoff, BackoffMax: retryBackoffMax, Jitter: retryJitter,
		Window: breakerWindow, Threshold: breakerThreshold,
	})
	c.Seq.PowerOn(m.PowerPort)
	m.setState(Running)
}

// Machine looks up a registered box.
func (c *Controller) Machine(name string) *Machine { return c.byName[name] }

// Machines lists registered boxes in registration order.
func (c *Controller) Machines() []*Machine { return c.machines }

// InjectFaults installs deterministic fault probabilities (the chaos
// harness's hook). ClearFaults removes them.
func (c *Controller) InjectFaults(f Faults) { c.faults = f }

// ClearFaults removes all injected fault probabilities.
func (c *Controller) ClearFaults() { c.faults = Faults{} }

// ActiveTransfers reports how many image transfers currently share the
// trunk.
func (c *Controller) ActiveTransfers() int { return len(c.trunk.active) }

// roll draws one fault decision from the sim RNG. A zero probability
// draws nothing, so fault-free runs consume no randomness.
func (c *Controller) roll(m *Machine, prob float64, kind string) bool {
	if prob <= 0 || c.Sim.Rand().Float64() >= prob {
		return false
	}
	c.FaultsInjected++
	c.faultsC.Inc()
	m.sc.Emit(obs.Event{Type: EvFault, VLAN: m.VLAN, Detail: kind})
	return true
}

// Reimage performs the §6.4 network reimaging cycle: enable PXE in the
// DHCP server, power-cycle, netboot a small Linux boot image, download the
// compressed Windows image over the shared trunk and write it with
// NTFS-aware tools, disable netboot, power-cycle again, and boot the
// freshly installed OS locally. done (optional) receives nil on success
// or ErrQuarantined if the breaker pulls the box mid-operation; transient
// failures retry internally and are not surfaced.
func (c *Controller) Reimage(m *Machine, image string, done func(error)) error {
	return c.admit(&operation{kind: opReimage, m: m, image: image, done: done})
}

// CaptureImage reads a suitably configured OS installation back into an
// image file using the same netboot mechanism — and, since it is the same
// mechanism, the same transition log as Reimage: NetBooting, Imaging,
// LocalBooting, Running.
func (c *Controller) CaptureImage(m *Machine, name string, done func(error)) error {
	return c.admit(&operation{kind: opCapture, m: m, image: name, done: done})
}

// RestoreFromHiddenPartition restores machines from their hidden second
// partitions. Slightly slower per machine (around 10 minutes) but the
// restores read local disk, not the trunk, so all machines restore
// simultaneously. Machines without a hidden image are skipped; machines
// that cannot be admitted (busy, quarantined) or end quarantined count
// toward done's failed total.
func (c *Controller) RestoreFromHiddenPartition(machines []*Machine, done func(failed int)) {
	pending, failed := 0, 0
	finished := false
	finish := func(err error) {
		pending--
		if err != nil {
			failed++
		}
		if pending == 0 && !finished {
			finished = true
			if done != nil {
				done(failed)
			}
		}
	}
	for _, m := range machines {
		if m.HiddenImage != "" {
			pending++
		}
	}
	if pending == 0 {
		if done != nil {
			done(0)
		}
		return
	}
	for _, m := range machines {
		if m.HiddenImage == "" {
			continue
		}
		op := &operation{kind: opRestore, m: m, image: m.HiddenImage, done: finish}
		if err := c.admit(op); err != nil {
			finish(err)
		}
	}
}

// admit validates and enqueues one operation. The machine is owned from
// here until the operation's terminal outcome.
func (c *Controller) admit(op *operation) error {
	m := op.m
	if m.sc == nil { // never passed through AddMachine
		return ErrUnknownMachine
	}
	if m.State == Quarantined {
		return ErrQuarantined
	}
	if m.op != nil {
		return ErrBusy
	}
	m.op = op
	m.ladder.Reset()
	op.started = c.Sim.Now()
	c.enqueue(op)
	return nil
}

// enqueue starts the operation, or queues it when the netboot concurrency
// bound is saturated. Restores bypass the bound (no trunk involvement).
func (c *Controller) enqueue(op *operation) {
	if op.kind != opRestore {
		if c.active >= maxConcurrent {
			c.waiting = append(c.waiting, op)
			op.m.sc.Emit(obs.Event{Type: EvQueued, VLAN: op.m.VLAN,
				N: uint64(len(c.waiting)), Detail: op.kind.String()})
			return
		}
		c.active++
		op.slotted = true
	}
	c.beginAttempt(op)
}

// releaseSlot frees the operation's netboot slot (if it holds one) and
// starts queued operations that now fit.
func (c *Controller) releaseSlot(op *operation) {
	if !op.slotted {
		return
	}
	op.slotted = false
	c.active--
	for len(c.waiting) > 0 && c.active < maxConcurrent {
		next := c.waiting[0]
		c.waiting = c.waiting[1:]
		c.active++
		next.slotted = true
		c.beginAttempt(next)
	}
}

func (c *Controller) beginAttempt(op *operation) {
	op.attempt++
	op.m.sc.Emit(obs.Event{Type: EvOpStart, VLAN: op.m.VLAN,
		N: uint64(op.attempt), Detail: op.kind.String()})
	if op.kind == opRestore {
		c.runRestore(op)
		return
	}
	c.runNetbootOp(op)
}

// stage arms the next transition's deadline and returns the generation a
// completion callback must present. A deadline miss fails the attempt.
func (c *Controller) stage(op *operation, name string, d time.Duration) int {
	op.gen++
	gen := op.gen
	op.stage = name
	op.deadline = c.Sim.Schedule(d, func() {
		if op.m.op != op || op.gen != gen {
			return
		}
		c.failAttempt(op, name)
	})
	return gen
}

// stageOK reports whether a stage-completion callback is still current —
// the operation still owns the box and no failure superseded the stage —
// and disarms the stage deadline when it is.
func (c *Controller) stageOK(op *operation, gen int) bool {
	if op.m.op != op || op.gen != gen {
		return false
	}
	if op.deadline != nil {
		op.deadline.Cancel()
	}
	return true
}

// cycle power-cycles the operation's box, unless a stuck-power fault
// fires: then the relay latches open, the port stays dark, and the armed
// power-stage deadline declares the attempt dead (the retry's own Cycle
// supersedes the wedged command).
func (c *Controller) cycle(op *operation, done func()) {
	if c.roll(op.m, c.faults.PowerStick, FaultPowerStick) {
		c.Seq.stick(op.m.PowerPort)
		return
	}
	c.Seq.Cycle(op.m.PowerPort, done)
}

// runNetbootOp is the shared reimage/capture pipeline: power-cycle into
// PXE, netboot, transfer the image over the shared trunk (down for
// reimage, up for capture), power-cycle out of PXE, boot locally.
func (c *Controller) runNetbootOp(op *operation) {
	m := op.m
	m.NetbootEnabled = true
	m.Host.Shutdown()
	gen := c.stage(op, stagePower, powerDeadline)
	c.cycle(op, func() {
		if !c.stageOK(op, gen) {
			return
		}
		m.setState(NetBooting)
		gen := c.stage(op, stageNetboot, netbootDeadline)
		if c.roll(m, c.faults.NetbootHang, FaultNetbootHang) {
			// The boot image never comes up; the netboot deadline will
			// declare the attempt dead.
			return
		}
		c.Sim.Schedule(bootDelay, func() {
			if !c.stageOK(op, gen) {
				return
			}
			m.setState(Imaging)
			gen := c.stage(op, stageTransfer, transferDeadline)
			if c.roll(m, c.faults.TransferStall, FaultTransferStall) {
				// The TFTP session stops moving bytes; the session
				// timeout declares it dead well before the stage's own
				// backstop deadline.
				c.Sim.Schedule(stallTimeout, func() {
					if op.m.op != op || op.gen != gen {
						return
					}
					c.failAttempt(op, FaultTransferStall)
				})
				return
			}
			// A corrupted transfer is only detectable once the checksum
			// runs over the complete image, so the decision is drawn now
			// but the failure surfaces at transfer end.
			corrupt := c.roll(m, c.faults.TransferCorrupt, FaultTransferCorrupt)
			op.xfer = c.trunk.begin(float64(c.Cfg.ImageSizeMB), func() {
				op.xfer = nil
				if !c.stageOK(op, gen) {
					return
				}
				if corrupt {
					c.failAttempt(op, FaultTransferCorrupt)
					return
				}
				m.NetbootEnabled = false
				gen := c.stage(op, stagePower, powerDeadline)
				c.cycle(op, func() {
					if !c.stageOK(op, gen) {
						return
					}
					m.setState(LocalBooting)
					gen := c.stage(op, stageLocalBoot, bootDeadline)
					c.Sim.Schedule(bootDelay, func() {
						if !c.stageOK(op, gen) {
							return
						}
						c.complete(op)
					})
				})
			})
		})
	})
}

// runRestore is the hidden-partition pipeline: power-cycle, boot the
// restorer from the hidden partition, copy locally, power-cycle, boot.
func (c *Controller) runRestore(op *operation) {
	m := op.m
	m.Host.Shutdown()
	gen := c.stage(op, stagePower, powerDeadline)
	c.cycle(op, func() {
		if !c.stageOK(op, gen) {
			return
		}
		m.setState(LocalBooting) // boots the hidden-partition restorer
		copyTime := time.Duration(float64(c.Cfg.ImageSizeMB) / float64(c.Cfg.HiddenRestoreMBps) * float64(time.Second))
		gen := c.stage(op, stageRestore, restoreDeadline)
		c.Sim.Schedule(bootDelay+copyTime, func() {
			if !c.stageOK(op, gen) {
				return
			}
			gen := c.stage(op, stagePower, powerDeadline)
			c.cycle(op, func() {
				if !c.stageOK(op, gen) {
					return
				}
				gen := c.stage(op, stageLocalBoot, bootDeadline)
				c.Sim.Schedule(bootDelay, func() {
					if !c.stageOK(op, gen) {
						return
					}
					c.complete(op)
				})
			})
		})
	})
}

// failAttempt is the single failure path: abort in-flight work, power the
// box down, record the failure against the breaker window, then either
// quarantine (threshold reached) or schedule a backed-off, jittered retry.
func (c *Controller) failAttempt(op *operation, why string) {
	m := op.m
	op.gen++ // invalidate every in-flight stage callback
	if op.deadline != nil {
		op.deadline.Cancel()
		op.deadline = nil
	}
	if op.xfer != nil {
		c.trunk.abort(op.xfer)
		op.xfer = nil
	}
	c.releaseSlot(op)
	c.Failures++
	m.setState(PoweredOff)
	c.Seq.PowerOff(m.PowerPort)

	m.ladder.Record()
	if m.ladder.Tripped() {
		c.quarantine(op, why)
		return
	}

	m.Retries++
	c.Retries++
	c.retriesC.Inc()
	m.sc.Emit(obs.Event{Type: EvRetry, VLAN: m.VLAN, N: uint64(op.attempt), Detail: why})
	c.Sim.Schedule(m.ladder.Delay(), func() {
		if m.op != op {
			return
		}
		c.enqueue(op)
	})
}

// quarantine is the breaker tripping: the box is pulled from rotation,
// its journal ring is dumped to the flight recorder, and the operation
// reports ErrQuarantined to its caller.
func (c *Controller) quarantine(op *operation, why string) {
	m := op.m
	m.setState(Quarantined)
	m.op = nil
	c.Quarantines++
	c.quarantinedC.Inc()
	m.sc.Emit(obs.Event{Type: EvQuarantine, VLAN: m.VLAN, N: uint64(op.attempt), Detail: why})
	m.sc.Dump(fmt.Sprintf("machine %s quarantined by breaker after %d failures in window (last: %s, attempt %d)",
		m.Name, m.ladder.Load(), why, op.attempt))
	if op.done != nil {
		op.done(ErrQuarantined)
	}
}

// complete is the operation's success path.
func (c *Controller) complete(op *operation) {
	m := op.m
	m.setState(Running)
	took := c.Sim.Now() - op.started
	switch op.kind {
	case opReimage, opRestore:
		m.DiskImage = op.image
		c.Reimages++
		c.reimageMS.Observe(int64(took / time.Millisecond))
	case opCapture:
		c.Captures++
	}
	m.Host.Reset()
	m.op = nil
	c.releaseSlot(op)
	m.sc.Emit(obs.Event{Type: EvOpDone, VLAN: m.VLAN,
		N: uint64(took / time.Millisecond), Detail: op.kind.String()})
	if op.done != nil {
		op.done(nil)
	}
}

// trunk models the shared PXE/TFTP uplink: every concurrent image
// transfer gets an equal share of the trunk capacity, re-divided whenever
// a transfer starts or finishes.
type trunk struct {
	s      *sim.Simulator
	mbps   float64
	active []*transfer
}

type transfer struct {
	remainMB float64
	rate     float64 // MB/s granted at the last rebalance
	since    time.Duration
	ev       *sim.Event
	done     func()
}

func newTrunk(s *sim.Simulator, mbps int) *trunk {
	return &trunk{s: s, mbps: float64(mbps)}
}

func (t *trunk) begin(sizeMB float64, done func()) *transfer {
	x := &transfer{remainMB: sizeMB, done: done}
	t.active = append(t.active, x)
	t.rebalance()
	return x
}

func (t *trunk) abort(x *transfer) {
	t.remove(x)
	if x.ev != nil {
		x.ev.Cancel()
		x.ev = nil
	}
	t.rebalance()
}

func (t *trunk) remove(x *transfer) {
	for i, a := range t.active {
		if a == x {
			t.active = append(t.active[:i], t.active[i+1:]...)
			return
		}
	}
}

func (t *trunk) finish(x *transfer) {
	t.remove(x)
	x.ev = nil
	t.rebalance()
	x.done()
}

// rebalance settles every active transfer's progress at its old rate,
// then reschedules its completion at the new equal share.
func (t *trunk) rebalance() {
	if len(t.active) == 0 {
		return
	}
	now := t.s.Now()
	share := t.mbps / float64(len(t.active))
	for _, x := range t.active {
		if x.rate > 0 {
			x.remainMB -= x.rate * (now - x.since).Seconds()
			if x.remainMB < 0 {
				x.remainMB = 0
			}
		}
		x.since = now
		x.rate = share
		if x.ev != nil {
			x.ev.Cancel()
		}
		x := x
		x.ev = t.s.Schedule(time.Duration(x.remainMB/share*float64(time.Second)), func() { t.finish(x) })
	}
}
