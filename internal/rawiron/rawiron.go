// Package rawiron implements GQ's raw-iron management (§6.4). Rather than
// fighting VM-detecting anti-forensics in malware, GQ provides identically
// configured physical x86 systems on a network-controlled power sequencer.
// Each system's boot configuration alternates between booting over the
// network (leading to an OS image transfer and installation) and booting
// from local disk when network booting fails (leading to normal inmate
// execution). A dedicated Raw Iron Controller runs the PXE/DHCP/TFTP/NFS
// machinery over a VLAN trunk covering all raw-iron VLANs.
//
// Because the hardware is real, the lifecycle is supervised rather than a
// happy-path callback chain: every transition (power cycle, netboot, image
// transfer, local boot) carries a sim-clock deadline, missed deadlines
// retry with capped exponential backoff and sim-RNG jitter, and a
// per-machine circuit breaker quarantines boxes that keep failing — with
// the failure history journalled under "rawiron.<machine>" and dumped to
// the flight recorder, mirroring internal/supervisor's conventions. Image
// transfers share one PXE/TFTP trunk of fixed capacity, so K concurrent
// reimages contend realistically instead of each seeing the full pipe.
package rawiron

import (
	"errors"
	"fmt"
	"time"

	"gq/internal/host"
	"gq/internal/obs"
	"gq/internal/sim"
)

// MachineState tracks where a box is in its boot/reimage cycle.
type MachineState int

// Machine states.
const (
	PoweredOff MachineState = iota
	NetBooting              // PXE + Trinity-Rescue-Kit-style boot image
	Imaging                 // transferring the OS image over the trunk
	LocalBooting
	Running
	// Quarantined is the circuit breaker's terminal state: the box failed
	// too many restore attempts inside the breaker window and is pulled
	// from rotation for the rest of the run.
	Quarantined
)

var stateNames = [...]string{"off", "netboot", "imaging", "localboot", "running", "quarantined"}

func (s MachineState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("MachineState(%d)", int(s))
}

// Journalled lifecycle events, emitted under each machine's own
// "rawiron.<machine>" scope so a quarantine dumps that box's full recent
// history to the flight recorder.
const (
	EvOpStart    = obs.EvRawIronPrefix + "op_start"
	EvFault      = obs.EvRawIronPrefix + "fault"
	EvRetry      = obs.EvRawIronPrefix + "retry"
	EvQueued     = obs.EvRawIronPrefix + "queued"
	EvQuarantine = obs.EvRawIronPrefix + "quarantine"
	EvOpDone     = obs.EvRawIronPrefix + "op_done"
)

// Injectable fault kinds (also the Detail of the matching EvFault/EvRetry
// events). Deadline-detected failures use the stage name instead.
const (
	FaultNetbootHang     = "netboot_hang"
	FaultTransferStall   = "transfer_stall"
	FaultTransferCorrupt = "transfer_corrupt"
	FaultPowerStick      = "power_stick"
)

// Stage names: each stage of an operation arms a deadline under this name,
// and a deadline miss journals the stage as the failure reason.
const (
	stagePower     = "power"
	stageNetboot   = "netboot"
	stageTransfer  = "transfer"
	stageRestore   = "restore"
	stageLocalBoot = "localboot"
)

// Operation admission errors.
var (
	// ErrBusy rejects overlapping operations on one machine: the §6.4
	// boot-alternation sequencing cannot run two cycles at once without
	// corrupting State/Transitions.
	ErrBusy = errors.New("rawiron: operation already in progress on machine")
	// ErrQuarantined rejects operations on a breaker-quarantined machine;
	// it is also what a failing operation's done callback receives when
	// the breaker trips mid-operation.
	ErrQuarantined = errors.New("rawiron: machine quarantined by circuit breaker")
	// ErrUnknownMachine rejects operations on a box never registered with
	// AddMachine.
	ErrUnknownMachine = errors.New("rawiron: machine not registered with controller")
)

// Machine is one small-form-factor raw-iron system.
type Machine struct {
	Name      string
	VLAN      uint16
	PowerPort int
	Host      *host.Host

	State MachineState
	// NetbootEnabled mirrors the controller's per-machine DHCP PXE flag.
	NetbootEnabled bool
	// DiskImage is the OS image currently installed on the main disk.
	DiskImage string
	// HiddenImage is the restore image on the hidden second partition.
	HiddenImage string

	// Retries counts retried attempts across all operations on this box.
	Retries int

	// Transitions logs state changes for tests.
	Transitions []string

	// ladder is the box's retry ladder, set at AddMachine: the breaker
	// history spans operations, the backoff restarts with each one.
	ladder *sim.Ladder
	// op is the operation currently owning the box (nil when idle).
	op *operation
	// sc is the machine's journal scope, set at AddMachine.
	sc *obs.Scope
}

func (m *Machine) setState(s MachineState) {
	m.State = s
	m.Transitions = append(m.Transitions, s.String())
}

// Busy reports whether an operation (running or queued) owns the box.
func (m *Machine) Busy() bool { return m.op != nil }

// BreakerLoad reports how many failures currently count against the
// breaker (the pruned sliding-window history length).
func (m *Machine) BreakerLoad() int { return m.ladder.Load() }

// Lifecycle tuning: stage deadlines, the retry ladder, the breaker and the
// netboot concurrency bound.
const (
	// Per-stage deadlines. A missed deadline fails the attempt. The
	// transfer deadline is a backstop: a TFTP session that moves no bytes
	// for stallTimeout is declared dead sooner.
	powerDeadline    = 10 * time.Second
	netbootDeadline  = 2 * time.Minute
	transferDeadline = 30 * time.Minute
	stallTimeout     = 90 * time.Second
	restoreDeadline  = 20 * time.Minute
	bootDeadline     = 2 * time.Minute

	// Retry policy: capped exponential backoff with sim-RNG jitter.
	retryBackoff    = 15 * time.Second
	retryBackoffMax = 4 * time.Minute
	retryJitter     = 0.5

	// Circuit breaker: breakerThreshold attempt failures within
	// breakerWindow quarantine the machine.
	breakerWindow    = time.Hour
	breakerThreshold = 4

	// maxConcurrent bounds concurrent netboot operations (reimage and
	// capture); excess admissions queue FIFO. Hidden-partition restores
	// bypass the bound — they read local disk, not the trunk.
	maxConcurrent = 2
)

// Config sizes the image and the pipes it moves through. The zero value
// selects paper-calibrated defaults: "around 6 minutes per reimaging cycle"
// and ~10-minute hidden restores.
type Config struct {
	ImageSizeMB       int // default 2048
	TrunkMBps         int // default 7: shared PXE/TFTP trunk capacity
	HiddenRestoreMBps int // default 4: local hidden-partition restore rate
}

// orDefault replaces an unset (zero or negative) value.
func orDefault(v *int, def int) {
	if *v <= 0 {
		*v = def
	}
}

func (cfg Config) withDefaults() Config {
	orDefault(&cfg.ImageSizeMB, 2048)
	orDefault(&cfg.TrunkMBps, 7)
	orDefault(&cfg.HiddenRestoreMBps, 4)
	return cfg
}

// Faults are the deterministic fault-hook probabilities internal/chaos
// installs: each is the per-opportunity chance (drawn from the sim RNG)
// of the corresponding hardware failure. The zero value draws nothing —
// a fault-free run consumes no randomness and replays exactly as it did
// before fault hooks existed.
type Faults struct {
	NetbootHang     float64 // PXE boot image never comes up
	TransferStall   float64 // TFTP session stops moving bytes
	TransferCorrupt float64 // image fails checksum verification at the end
	PowerStick      float64 // power relay latches open, port stays dark
}

// PowerSequencer is the network-controlled power strip enabling remote,
// OS-independent reboots. Cycle commands on one port are serialized: a
// second command issued mid-cycle queues behind the first instead of
// interleaving relay operations.
type PowerSequencer struct {
	sim      *sim.Simulator
	ports    map[int]bool
	inflight map[int]*powerCycle

	// Cycles counts power cycles performed (including stuck ones).
	Cycles int
}

// powerCycle is one in-flight cycle command on a port. A stuck cycle has
// no completion event — the relay latched open — and is superseded by the
// next command on the port.
type powerCycle struct {
	stuck bool
	queue []func()
}

// NewPowerSequencer creates an all-off sequencer.
func NewPowerSequencer(s *sim.Simulator) *PowerSequencer {
	return &PowerSequencer{sim: s, ports: make(map[int]bool), inflight: make(map[int]*powerCycle)}
}

// On reports a port's power state.
func (p *PowerSequencer) On(port int) bool { return p.ports[port] }

// PowerOn enables a port.
func (p *PowerSequencer) PowerOn(port int) { p.ports[port] = true }

// PowerOff disables a port.
func (p *PowerSequencer) PowerOff(port int) { p.ports[port] = false }

// Cycle power-cycles a port: off, a beat, on, then done. A Cycle issued
// while another is in flight on the same port runs after it completes; a
// Cycle issued on a stuck port supersedes the wedged command.
func (p *PowerSequencer) Cycle(port int, done func()) {
	if cur := p.inflight[port]; cur != nil {
		if !cur.stuck {
			cur.queue = append(cur.queue, done)
			return
		}
		delete(p.inflight, port)
	}
	p.begin(port, false, done)
}

// stick injects a stuck cycle: the relay opens and never re-closes. The
// port stays dark until a later Cycle supersedes the wedged command.
func (p *PowerSequencer) stick(port int) {
	if cur := p.inflight[port]; cur != nil && cur.stuck {
		return
	}
	p.begin(port, true, nil)
}

func (p *PowerSequencer) begin(port int, stuck bool, done func()) {
	p.Cycles++
	p.ports[port] = false
	cur := &powerCycle{stuck: stuck}
	p.inflight[port] = cur
	if stuck {
		return
	}
	p.sim.Schedule(2*time.Second, func() {
		p.ports[port] = true
		if p.inflight[port] == cur {
			delete(p.inflight, port)
		}
		if done != nil {
			done()
		}
		for _, q := range cur.queue {
			p.Cycle(port, q)
		}
	})
}

// bootDelay is POST + bootloader on real hardware.
const bootDelay = 30 * time.Second
