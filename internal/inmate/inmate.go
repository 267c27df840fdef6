// Package inmate implements GQ's inmate life-cycle machinery (§5.5, §6.3):
// the inmate controller that receives text-protocol life-cycle actions from
// containment servers over the management network, the VMM abstraction that
// hides whether an inmate runs virtualised, emulated, or on raw iron, and
// the VLAN ID pool that hands each inmate its unique link-layer identity.
package inmate

import (
	"fmt"
	"time"

	"gq/internal/host"
	"gq/internal/sim"
)

// State is an inmate's life-cycle state.
type State int

// Life-cycle states.
const (
	StateCreated State = iota
	StateBooting
	StateRunning
	StateStopped
	StateReverting
	StateTerminated
)

var stateNames = [...]string{"created", "booting", "running", "stopped", "reverting", "terminated"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Backend abstracts the hosting technology. The hosting technology employed
// for a given inmate remains transparent to the gateway (§5.2); the
// controller "abstracts physical details of the inmates, such as their
// hosting server and whether they run virtualized or on raw iron".
type Backend interface {
	// BootDelay is how long power-on to OS-up takes.
	BootDelay() time.Duration
	// Revert restores the inmate to a clean snapshot, invoking done when
	// the machine is back at power-on.
	Revert(im *Inmate, done func())
}

// VMBackend models full-system virtualisation (VMware ESX-class): fast
// boots and fast snapshot reverts.
type VMBackend struct{ Sim *sim.Simulator }

// BootDelay implements Backend.
func (b *VMBackend) BootDelay() time.Duration { return 2 * time.Second }

// Revert implements Backend.
func (b *VMBackend) Revert(im *Inmate, done func()) {
	b.Sim.Schedule(10*time.Second, done)
}

// QEMUBackend models customised whole-system emulation: slower in every
// phase but immune to some VM-detection tricks.
type QEMUBackend struct{ Sim *sim.Simulator }

// BootDelay implements Backend.
func (b *QEMUBackend) BootDelay() time.Duration { return 6 * time.Second }

// Revert implements Backend.
func (b *QEMUBackend) Revert(im *Inmate, done func()) {
	b.Sim.Schedule(20*time.Second, done)
}

// Inmate is one contained machine.
type Inmate struct {
	VLAN    uint16
	Host    *host.Host
	Backend Backend

	State State
	// Generation increments on every revert; infection scripts key off it
	// ("subsequent reboots should not trigger reinfection", §6.6 — but a
	// revert produces a fresh first boot).
	Generation int

	// OnBoot runs when the (re)booted OS comes up: the farm installs DHCP
	// configuration and the auto-infection script here.
	OnBoot func(im *Inmate)
	// OnTerminate runs after a terminate action.
	OnTerminate func(im *Inmate)

	sim *sim.Simulator
}

// New creates an inmate in StateCreated.
func New(s *sim.Simulator, vlan uint16, h *host.Host, b Backend) *Inmate {
	return &Inmate{VLAN: vlan, Host: h, Backend: b, sim: s}
}

// Start powers the inmate on; OnBoot fires after the backend's boot delay.
func (im *Inmate) Start() {
	if im.State == StateRunning || im.State == StateBooting || im.State == StateTerminated {
		return
	}
	im.State = StateBooting
	gen := im.Generation
	im.sim.Schedule(im.Backend.BootDelay(), func() {
		if im.State != StateBooting || im.Generation != gen {
			return
		}
		im.State = StateRunning
		if im.OnBoot != nil {
			im.OnBoot(im)
		}
	})
}

// Stop powers the inmate off.
func (im *Inmate) Stop() {
	if im.State == StateTerminated {
		return
	}
	im.Host.Shutdown()
	im.State = StateStopped
}

// Reboot power-cycles without reverting state (malware often reboots its
// host intentionally; the infection survives).
func (im *Inmate) Reboot() {
	if im.State == StateTerminated {
		return
	}
	im.Host.Shutdown()
	im.State = StateStopped
	// Note: no Reset — the "disk" keeps its state; the network stack
	// configuration is re-acquired at boot.
	im.Host.Reset()
	im.State = StateBooting
	gen := im.Generation
	im.sim.Schedule(im.Backend.BootDelay(), func() {
		if im.Generation != gen || im.State != StateBooting {
			return
		}
		im.State = StateRunning
		if im.OnBoot != nil {
			im.OnBoot(im)
		}
	})
}

// Revert restores the clean snapshot and boots; the inmate comes back as a
// fresh machine ready for reinfection.
func (im *Inmate) Revert() {
	if im.State == StateTerminated || im.State == StateReverting {
		return
	}
	im.Host.Shutdown()
	im.State = StateReverting
	im.Generation++
	gen := im.Generation
	im.Backend.Revert(im, func() {
		if im.Generation != gen || im.State != StateReverting {
			return
		}
		im.Host.Reset()
		im.State = StateBooting
		im.sim.Schedule(im.Backend.BootDelay(), func() {
			if im.Generation != gen || im.State != StateBooting {
				return
			}
			im.State = StateRunning
			if im.OnBoot != nil {
				im.OnBoot(im)
			}
		})
	})
}

// Terminate permanently retires the inmate.
func (im *Inmate) Terminate() {
	if im.State == StateTerminated {
		return
	}
	im.Host.Shutdown()
	im.State = StateTerminated
	if im.OnTerminate != nil {
		im.OnTerminate(im)
	}
}

// VLANPool hands out unique VLAN IDs. IEEE 802.1Q's twelve-bit ID limits a
// single inmate network to 4,094 usable IDs (§7.2).
type VLANPool struct {
	lo, hi uint16
	used   map[uint16]bool
	next   uint16
}

// NewVLANPool creates a pool over [lo, hi].
func NewVLANPool(lo, hi uint16) *VLANPool {
	return &VLANPool{lo: lo, hi: hi, used: make(map[uint16]bool), next: lo}
}

// Allocate returns a free VLAN ID.
func (p *VLANPool) Allocate() (uint16, error) {
	for i := 0; i <= int(p.hi-p.lo); i++ {
		v := p.next
		p.next++
		if p.next > p.hi {
			p.next = p.lo
		}
		if !p.used[v] {
			p.used[v] = true
			return v, nil
		}
	}
	return 0, fmt.Errorf("inmate: VLAN pool %d-%d exhausted", p.lo, p.hi)
}

// Release returns an ID to the pool.
func (p *VLANPool) Release(v uint16) { delete(p.used, v) }
