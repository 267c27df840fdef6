package farm

import (
	"fmt"
	"time"

	"gq/internal/inmate"
	"gq/internal/obs"
	"gq/internal/rawiron"
	"gq/internal/sim"
)

// This file is the farm-level specimen-recycling pipeline over raw iron:
// detonate → capture → reimage → re-admit. A Recycler drives a pool of
// raw-iron inmates through bounded-concurrency restores so the subfarm
// sustains the paper's specimens/day cadence even while individual boxes
// retry or sit in breaker quarantine.

// Journalled pipeline events, emitted under "lifecycle.<subfarm>".
const (
	EvLifecycleDetonate = obs.EvLifecyclePrefix + "detonate"
	EvLifecycleCapture  = obs.EvLifecyclePrefix + "capture"
	EvLifecycleReimage  = obs.EvLifecyclePrefix + "reimage"
	EvLifecycleRecycled = obs.EvLifecyclePrefix + "recycled"
	EvLifecycleLost     = obs.EvLifecyclePrefix + "lost"
)

// Recycling-member phases.
const (
	phaseIdle     = "idle"
	phaseDetonate = "detonate"
	phaseCapture  = "capture"
	phaseReimage  = "reimage"
	phaseLost     = "lost"
)

// recycleStagger offsets successive members' first detonation so harvests
// don't all hit the PXE/TFTP trunk at once.
const recycleStagger = 90 * time.Second

// RecyclerConfig tunes the detonate→capture→reimage→readmit pipeline.
type RecyclerConfig struct {
	// DetonateFor is each specimen's execution window before harvest.
	DetonateFor time.Duration // default 10m
	// Capture, when set, reads the post-detonation disk back into an
	// image (named after the machine and generation) before the clean
	// reimage — the paper's capture step.
	Capture bool
}

func (cfg RecyclerConfig) withDefaults() RecyclerConfig {
	if cfg.DetonateFor <= 0 {
		cfg.DetonateFor = 10 * time.Minute
	}
	return cfg
}

// recycleMember is one raw-iron inmate in the rotation.
type recycleMember struct {
	fi *FarmInmate
	m  *rawiron.Machine

	phase  string
	cycles int
	timer  *sim.Event // pending detonation-window end (or staggered start)
}

// Recycler drives the subfarm's raw-iron pool through endless
// detonate→capture→reimage→readmit cycles until Stop.
type Recycler struct {
	sf  *Subfarm
	cfg RecyclerConfig
	sc  *obs.Scope

	members map[uint16]*recycleMember
	order   []uint16 // registration order, for deterministic starts

	recycled *obs.Counter

	// Cycles counts completed full cycles across all members; Lost counts
	// members dropped from rotation (their machine ended in breaker
	// quarantine).
	Cycles int
	Lost   int

	// progress is the supervision tree's monotone progress mark: it
	// advances at every phase transition, so a rotation whose mark freezes
	// while Active is wedged.
	progress         int
	started, stopped bool
}

// StartIronRotation gives the subfarm its raw-iron pool (§6.4): a controller
// in the subfarm's simulation domain — machine lifecycle events ride the
// same deterministic event order as the rest of the subfarm — and n boxes
// (iron-0 … iron-n-1, imaged winxp-golden, one power-sequencer port each)
// cycling through a started recycler. Call it once per subfarm, after the
// VM inmates (DESIGN.md §3j).
func (sf *Subfarm) StartIronRotation(n int, pool rawiron.Config, cycle RecyclerConfig) (*Recycler, error) {
	const cleanImage = "winxp-golden"
	sf.RawIron = rawiron.NewController(sf.Sim, pool)
	r := &Recycler{
		sf: sf, cfg: cycle.withDefaults(),
		sc:       sf.Sim.Obs().Scope(obs.EvLifecyclePrefix+sf.Name, obs.DefaultRingSize),
		recycled: sf.Sim.Obs().Reg.Counter("lifecycle.recycled"),
		members:  make(map[uint16]*recycleMember),
	}
	sf.Recycler = r
	sf.Farm.registerRecycleAction()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("iron-%d", i)
		// The machine name carries the subfarm prefix so per-machine
		// journal scopes ("rawiron.<machine>") stay unique farm-wide. Its
		// backend's Revert is a full network reimage of the clean image.
		m := &rawiron.Machine{Name: sf.Name + "-" + name, PowerPort: i + 1, DiskImage: cleanImage}
		b := &rawiron.Backend{Controller: sf.RawIron, Machine: m, CleanImage: cleanImage}
		fi, err := sf.AddInmateWithBackend(name, b)
		if err != nil {
			return nil, err
		}
		m.Host, m.VLAN = fi.Host, fi.VLAN
		sf.RawIron.AddMachine(m)
		r.manage(fi, b)
	}
	r.Start()
	return r, nil
}

// manage adds a raw-iron inmate to the rotation.
func (r *Recycler) manage(fi *FarmInmate, b *rawiron.Backend) {
	mb := &recycleMember{fi: fi, m: b.Machine, phase: phaseIdle}
	r.members[fi.VLAN] = mb
	r.order = append(r.order, fi.VLAN)
	// Re-admission is detected at the inmate's boot callback: a boot
	// arriving while the member is mid-reimage closes the cycle.
	prevBoot := fi.OnBoot
	fi.OnBoot = func(im *inmate.Inmate) {
		if prevBoot != nil {
			prevBoot(im)
		}
		r.onBoot(mb)
	}
	// A terminal revert failure (breaker quarantine) drops the member
	// from rotation instead of wedging it in StateReverting.
	b.OnFail = func(_ *inmate.Inmate, err error) { r.lose(mb) }
}

// Manages reports whether vlan belongs to this recycler's rotation.
// Membership is fixed at build time, so this is safe to call from the
// root domain when routing the "recycle" controller verb.
func (r *Recycler) Manages(vlan uint16) bool {
	_, ok := r.members[vlan]
	return ok
}

// Start begins the rotation: each member detonates for DetonateFor
// (staggered), is harvested — stopped and optionally captured — then
// reimaged clean; its re-admission boot closes the cycle and the next
// detonation window opens immediately.
func (r *Recycler) Start() {
	if r.started {
		return
	}
	r.started = true
	for i, vlan := range r.order {
		mb := r.members[vlan]
		mb.timer = r.sf.Sim.Schedule(time.Duration(i)*recycleStagger, func() { r.detonate(mb) })
	}
}

// Stop ends the rotation: pending detonation windows are cancelled, and
// in-flight capture/reimage operations run to completion — their closing
// boot still counts the cycle but opens no new window.
func (r *Recycler) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	for _, vlan := range r.order {
		mb := r.members[vlan]
		if mb.timer != nil {
			mb.timer.Cancel()
			mb.timer = nil
		}
	}
}

// Kick forces one member out of its detonation window into harvest now —
// the ops plane's POST /recycle/{inmate}.
func (r *Recycler) Kick(vlan uint16) error {
	mb := r.members[vlan]
	if mb == nil {
		return fmt.Errorf("recycler: no raw-iron member on VLAN %d", vlan)
	}
	switch mb.phase {
	case phaseDetonate:
	case phaseLost:
		return fmt.Errorf("recycler: member on VLAN %d lost to quarantine", vlan)
	default:
		return fmt.Errorf("recycler: member on VLAN %d is mid-%s, not detonating", vlan, mb.phase)
	}
	if mb.timer != nil {
		mb.timer.Cancel()
		mb.timer = nil
	}
	r.harvest(mb)
	return nil
}

func (r *Recycler) detonate(mb *recycleMember) {
	if r.stopped || mb.phase == phaseLost {
		return
	}
	mb.phase = phaseDetonate
	r.progress++
	r.sc.Emit(obs.Event{Type: EvLifecycleDetonate, VLAN: mb.fi.VLAN, N: uint64(mb.cycles)})
	mb.timer = r.sf.Sim.Schedule(r.cfg.DetonateFor, func() { r.harvest(mb) })
}

// harvest ends the detonation window: the specimen is powered down and
// the disk optionally captured before the clean reimage.
func (r *Recycler) harvest(mb *recycleMember) {
	if mb.phase != phaseDetonate {
		return
	}
	mb.timer = nil
	r.progress++
	mb.fi.Stop()
	if r.cfg.Capture {
		mb.phase = phaseCapture
		r.sc.Emit(obs.Event{Type: EvLifecycleCapture, VLAN: mb.fi.VLAN, N: uint64(mb.cycles)})
		img := fmt.Sprintf("%s-gen%d", mb.m.Name, mb.fi.Generation)
		err := r.sf.RawIron.CaptureImage(mb.m, img, func(err error) {
			if err != nil {
				r.lose(mb)
				return
			}
			r.reimage(mb)
		})
		if err != nil {
			r.lose(mb)
		}
		return
	}
	r.reimage(mb)
}

func (r *Recycler) reimage(mb *recycleMember) {
	if mb.phase == phaseLost {
		return
	}
	mb.phase = phaseReimage
	r.progress++
	r.sc.Emit(obs.Event{Type: EvLifecycleReimage, VLAN: mb.fi.VLAN, N: uint64(mb.cycles)})
	// Revert drives Backend.Revert → Controller.Reimage; failure lands in
	// the backend's OnFail (wired by manage) and loses the member.
	mb.fi.Revert()
}

// onBoot fires on every inmate boot; one arriving mid-reimage is the
// re-admission that closes the cycle.
func (r *Recycler) onBoot(mb *recycleMember) {
	if mb.phase != phaseReimage {
		return
	}
	mb.phase = phaseIdle
	mb.cycles++
	r.Cycles++
	r.progress++
	r.recycled.Inc()
	r.sc.Emit(obs.Event{Type: EvLifecycleRecycled, VLAN: mb.fi.VLAN, N: uint64(mb.cycles)})
	if r.stopped {
		return
	}
	r.detonate(mb)
}

// lose drops a member from rotation — its machine ended in breaker
// quarantine — so the pipeline carries on with the surviving pool
// rather than wedging.
func (r *Recycler) lose(mb *recycleMember) {
	if mb.phase == phaseLost {
		return
	}
	mb.phase = phaseLost
	if mb.timer != nil {
		mb.timer.Cancel()
		mb.timer = nil
	}
	r.Lost++
	r.progress++
	r.sc.Emit(obs.Event{Type: EvLifecycleLost, VLAN: mb.fi.VLAN, N: uint64(mb.cycles)})
	// The inmate may be stranded mid-revert; stop it so the farm has no
	// phantom booting machine.
	mb.fi.Stop()
}

// Progress returns the rotation's monotone progress mark (one increment
// per phase transition across all members). The supervision tree polls it
// together with Active: an active rotation whose mark freezes past the
// wedge budget gets re-armed.
func (r *Recycler) Progress() int { return r.progress }

// Active reports whether the rotation should be making progress: started,
// not stopped, and at least one member still in rotation.
func (r *Recycler) Active() bool {
	if !r.started || r.stopped {
		return false
	}
	for _, vlan := range r.order {
		if r.members[vlan].phase != phaseLost {
			return true
		}
	}
	return false
}

// Wedge cancels every pending rotation timer without stopping the
// rotation — the chaos recycler-wedge fault: members freeze in place
// (idle members never detonate, detonating members never harvest) until
// the supervision tree notices the frozen progress mark and re-arms them.
// Returns the number of timers cancelled.
func (r *Recycler) Wedge() int {
	n := 0
	for _, vlan := range r.order {
		mb := r.members[vlan]
		if mb.timer != nil {
			mb.timer.Cancel()
			mb.timer = nil
			n++
		}
	}
	return n
}

// Rearm restarts members whose pending timer was lost (a wedge): idle
// members detonate now, detonating members harvest now. Members
// mid-capture or mid-reimage are event-driven, not timer-driven, and
// need no kick. Invoked by the supervision tree on the subfarm's domain.
func (r *Recycler) Rearm() {
	if !r.started || r.stopped {
		return
	}
	for _, vlan := range r.order {
		mb := r.members[vlan]
		if mb.timer != nil {
			continue
		}
		switch mb.phase {
		case phaseIdle:
			r.detonate(mb)
		case phaseDetonate:
			r.harvest(mb)
		}
	}
}

// registerRecycleAction wires the "recycle" verb into the farm-wide
// inmate controller, routing it to the subfarm recycler that owns the
// VLAN. The kick's result is reported only when the recycler shares the
// controller's domain; a cross-domain kick is posted and the OK acknowledges
// acceptance, like every other cross-domain VMM command.
func (f *Farm) registerRecycleAction() {
	if f.Controller.RecycleFn != nil {
		return
	}
	f.Controller.RecycleFn = func(vlan uint16) error {
		for _, sf := range f.Subfarms {
			r := sf.Recycler
			if r == nil || !r.Manages(vlan) {
				continue
			}
			var err error
			f.Sim.Hop(sf.Sim, func() { err = r.Kick(vlan) })
			return err
		}
		return fmt.Errorf("farm: no recycler manages VLAN %d", vlan)
	}
}
