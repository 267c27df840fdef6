package farm

import (
	"fmt"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/supervisor"
)

// supProbeOff is the service-prefix offset of the subfarm's supervision
// prober host (after the sinks at offsets 2-5 and the facade echo pair
// at 6-7; containment clusters start at 20).
const supProbeOff = 8

// Supervise attaches the subfarm's supervision-tree node: every
// containment server is heartbeat-probed over the shim channel, every
// sink server is TCP-probed from a dedicated service-VLAN prober host,
// and the farm-wide inmate controller is PING-probed over the management
// network. Crashed CS and sink endpoints are restarted with backed-off,
// jittered, breaker-guarded timers on the subfarm's own sim clock;
// controller transitions are reported to the farm's root node, which owns
// its restart ladder whether or not the rest of the tree (SuperviseTree)
// is built; inmates that repeatedly trip triggers or containment probes
// are quarantined through the controller; and a
// containment plane that stays fully dead past its budget escalates to
// subfarm fail-closed lockdown. Probes never cross the router's flow
// table — sink probes ride the service VLAN, controller probes the
// management network, heartbeats the shim channel — so supervision keeps
// observing even inside a lockdown.
// Call it once, after AddSubfarm and before Run.
func (sf *Subfarm) Supervise(cfg supervisor.Config) *supervisor.Supervisor {
	if sf.Supervisor != nil {
		return sf.Supervisor
	}
	f := sf.Farm
	deps := supervisor.Deps{
		Sim:        sf.Sim,
		Router:     sf.Router,
		Name:       sf.Name,
		Mgmt:       sf.CSMgmt,
		Controller: f.ControllerHost,
		Prober:     sf.proberHost(),
		Sinks:      sf.sinkEndpoints(),
		Root:       f.rootNode(cfg),
	}
	for i, srv := range sf.CSCluster {
		deps.Endpoints = append(deps.Endpoints, supervisor.Endpoint{
			Host: sf.SvcHosts[csName(i)], Rebind: srv.Rebind,
		})
	}
	sf.Supervisor = supervisor.New(deps, cfg)
	return sf.Supervisor
}

// sinkEndpoints lists the subfarm's supervisable sink servers with their
// probe ports and listener-rebind closures. The stdlib HTTP server sink
// is excluded: its handler goroutines are detached from the sim clock
// (DESIGN.md §3e), so a deterministic supervised restart cannot be
// guaranteed for it.
func (sf *Subfarm) sinkEndpoints() []supervisor.Endpoint {
	var eps []supervisor.Endpoint
	for _, s := range []struct {
		id      string
		port    uint16
		present bool
		rebind  func() error
	}{
		// The catch-all listens on every port; 9 (discard) is as good a
		// probe target as any.
		{"catchall", 9, sf.CatchAll != nil, sf.CatchAll.Rebind},
		{"smtpsink", 25, sf.SMTPSink != nil, sf.SMTPSink.Rebind},
		{"bannersink", 25, sf.BannerSink != nil, sf.BannerSink.Rebind},
		{"httpsink", 80, sf.HTTPSink != nil, sf.HTTPSink.Rebind},
	} {
		if s.present {
			eps = append(eps, supervisor.Endpoint{ID: s.id, Host: sf.SvcHosts[s.id], Port: s.port, Rebind: s.rebind})
		}
	}
	return eps
}

// RebindSink reinstalls the named sink server's listeners on its (reset)
// service host — the restore half of a hard sink crash, used by the chaos
// injector's unsupervised recovery path. Supervised subfarms never call
// it; their tree node owns sink restarts.
func (sf *Subfarm) RebindSink(name string) error {
	for _, ep := range sf.sinkEndpoints() {
		if ep.ID == name {
			return ep.Rebind()
		}
	}
	return fmt.Errorf("farm: no supervisable sink %q", name)
}

// proberHost lazily creates the subfarm's supervision prober: one more
// service-VLAN host, peer to the sinks it probes, so liveness dials stay
// on-link L2 and never touch the router's flow table.
func (sf *Subfarm) proberHost() *host.Host {
	if h := sf.SvcHosts["supprobe"]; h != nil {
		return h
	}
	cfg := sf.Config
	name := cfg.Name + "-supprobe"
	h := sf.Farm.newHostIn(sf.Sim, name)
	netsim.Connect(sf.sw.AddAccessPort(name, cfg.ServiceVLAN), h.NIC(), cfg.AccessLatency)
	h.ConfigureStatic(cfg.ServicePrefix.Nth(supProbeOff), cfg.ServicePrefix.Bits,
		cfg.ServicePrefix.Nth(defaultSvcGateway))
	sf.Router.RegisterServiceHost(h.Addr(), cfg.ServiceVLAN)
	sf.SvcHosts["supprobe"] = h
	return h
}

// SetLockdown engages or releases the subfarm's fail-closed lockdown
// from the ops plane (run it on the subfarm's domain via Driver.Do).
// A supervised subfarm goes through its tree node, so the transition
// lands in the escalation history and the tree journal; an unsupervised
// one flips the router directly. Returns the number of flows failed
// closed on engage.
func (sf *Subfarm) SetLockdown(on bool, reason string) int {
	if sup := sf.Supervisor; sup != nil {
		if on {
			return sup.EngageLockdown(reason)
		}
		sup.ReleaseLockdown(reason)
		return 0
	}
	return sf.Router.SetLockdown(on, reason)
}
