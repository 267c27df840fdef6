package farm

import (
	"fmt"

	"gq/internal/inmate"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/rawiron"
)

// This file holds the runtime-control surface the live ops plane
// (internal/ops) drives. Every method here mutates sim-owned state and
// therefore MUST run on the subfarm's simulation goroutine — the ops plane
// arranges that by wrapping each call in an injected sim event. Each
// applied action is journalled on the subfarm's scope so a served run's
// journal records operator intervention in the same total order as
// everything else.

// opsScope returns the subfarm's journal scope (idempotent by name, so
// this is the same scope Build created).
func (sf *Subfarm) opsScope() *obs.Scope {
	return sf.Sim.Obs().Scope(sf.Name, 0)
}

// SwapPolicy replaces the containment policy for the VLAN range [lo,hi]
// on every cluster member with the named decider. An exact-match range is
// replaced in place; otherwise the new range is prepended so it shadows
// any overlapping assignment (first match wins in the dispatch). The swap
// is journalled as ops.policy_swap.
func (sf *Subfarm) SwapPolicy(lo, hi uint16, name string) error {
	if lo > hi {
		return fmt.Errorf("swap policy: inverted range [%d,%d]", lo, hi)
	}
	d, err := policy.New(name, sf.Policy)
	if err != nil {
		return fmt.Errorf("swap policy: %w", err)
	}
	d = policy.Instrument(d, sf.Sim.Obs().Reg)
	for _, srv := range sf.CSCluster {
		srv.SwapPolicy(lo, hi, d)
	}
	sf.opsScope().Emit(obs.Event{
		Type: obs.EvOpsPolicySwap, VLAN: lo, N: uint64(hi), Detail: name,
	})
	return nil
}

// QuarantineInmate routes a lifecycle action ("stop", "revert",
// "terminate", ...) for one inmate VLAN through the farm-wide inmate
// controller and journals it as ops.quarantine. This runs inside the
// subfarm's domain while the controller is root-domain state, so the
// action is validated here and then hops to the root. The controller's own
// verdict is reported only when the two share a domain; on a sharded farm
// it executes one lookahead later and dispatches the VMM command back into
// the inmate's domain.
func (sf *Subfarm) QuarantineInmate(vlan uint16, action string) error {
	if _, ok := sf.Inmates[vlan]; !ok {
		return fmt.Errorf("quarantine: no inmate on VLAN %d", vlan)
	}
	if !inmate.KnownAction(action) {
		return fmt.Errorf("quarantine: unknown action %q", action)
	}
	ctl := sf.Farm.Controller
	var err error
	sf.Sim.Hop(sf.Farm.Sim, func() { err = ctl.Execute(action, vlan) })
	if err != nil {
		return fmt.Errorf("quarantine: %w", err)
	}
	sf.opsScope().Emit(obs.Event{
		Type: obs.EvOpsQuarantine, VLAN: vlan, Detail: action,
	})
	return nil
}

// MachineInfo is the ops plane's view of one raw-iron machine.
type MachineInfo struct {
	Subfarm     string `json:"subfarm"`
	Name        string `json:"name"`
	VLAN        uint16 `json:"vlan"`
	State       string `json:"state"`
	PowerOn     bool   `json:"power_on"`
	Busy        bool   `json:"busy"`
	DiskImage   string `json:"disk_image"`
	Retries     int    `json:"retries"`
	BreakerLoad int    `json:"breaker_load"`
	Quarantined bool   `json:"quarantined"`
}

// Machines lists the subfarm's raw-iron machines (registration order)
// with their lifecycle, retry, and breaker status.
func (sf *Subfarm) Machines() []MachineInfo {
	if sf.RawIron == nil {
		return nil
	}
	out := make([]MachineInfo, 0, len(sf.RawIron.Machines()))
	for _, m := range sf.RawIron.Machines() {
		out = append(out, MachineInfo{
			Subfarm: sf.Name, Name: m.Name, VLAN: m.VLAN,
			State: m.State.String(), PowerOn: sf.RawIron.Seq.On(m.PowerPort),
			Busy: m.Busy(), DiskImage: m.DiskImage, Retries: m.Retries,
			BreakerLoad: m.BreakerLoad(), Quarantined: m.State == rawiron.Quarantined,
		})
	}
	return out
}

// RecycleInmate forces one raw-iron inmate out of its detonation window
// through the capture→reimage→readmit path, journalled as ops.recycle.
func (sf *Subfarm) RecycleInmate(vlan uint16) error {
	if sf.Recycler == nil {
		return fmt.Errorf("recycle: subfarm %s has no recycling pipeline", sf.Name)
	}
	if err := sf.Recycler.Kick(vlan); err != nil {
		return fmt.Errorf("recycle: %w", err)
	}
	sf.opsScope().Emit(obs.Event{Type: obs.EvOpsRecycle, VLAN: vlan})
	return nil
}
