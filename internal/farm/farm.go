// Package farm assembles GQ: the central gateway between the outside
// network and the internal machinery, per-subfarm packet routers and
// containment servers, infrastructure services (DHCP, DNS, sinks), the
// management network with the inmate controller, inmates with their
// auto-infection boot sequence, and reporting (Fig. 1, Fig. 3).
package farm

import (
	"slices"
	"time"

	"gq/internal/containment"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/inmate"
	"gq/internal/nat"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/rawiron"
	"gq/internal/report"
	"gq/internal/shim"
	"gq/internal/sim"
	"gq/internal/sink"
	"gq/internal/smtpx"
	"gq/internal/supervisor"
)

// Farm is a complete GQ deployment.
type Farm struct {
	Sim     *sim.Simulator
	Gateway *gateway.Gateway

	// Coord, when non-nil, shards the farm: each subfarm is built inside
	// its own simulation domain and the domains run on worker goroutines
	// under the coordinator's conservative lookahead synchronization. The
	// gateway core, management network and controller stay in the root
	// domain (f.Sim); external hosts live in the external domain below, so
	// the flat Internet segment does not serialize on the root.
	Coord *sim.Coordinator

	// extDomain/extSwitch are the external domain and its learning switch,
	// which carries the flat Internet segment's hosts and is bridged to the
	// root InternetSwitch over a trunk at netsim.TrunkLatency. Nil for an
	// unsharded farm.
	extDomain *sim.Simulator
	extSwitch *netsim.Switch

	// InmateSwitch carries all subfarm VLANs; InternetSwitch is the flat
	// "outside world"; MgmtSwitch the management network.
	InmateSwitch   *netsim.Switch
	InternetSwitch *netsim.Switch
	MgmtSwitch     *netsim.Switch

	// Controller is the farm-wide inmate controller (conceptually on the
	// gateway, §5.5).
	Controller     *inmate.Controller
	ControllerHost *host.Host

	// CBL is the shared blacklist feed.
	CBL *report.CBL

	// Fold folds the journal's flow events for the Fig. 7 report and the
	// experiments; the journal's follower from the farm's construction, so
	// it sees every flow whatever sink is attached.
	Fold *report.Fold

	Subfarms []*Subfarm

	// Tree is the farm-root supervision node once SuperviseTree has built
	// the tree under it: it owns the controller restart ladder, watches
	// recycler progress and external hosts, and holds the global dead-man
	// switch.
	Tree *supervisor.Root

	// extHosts records hosts placed on the flat Internet segment, in
	// creation order, so SuperviseTree can register aliveness watches over
	// the ones present at wiring time.
	extHosts []*host.Host

	// Warnings lists what Spec.Build found odd but not fatal; journal is
	// the Spec.Journal sink (see FlushJournal).
	Warnings []string
	journal  *obs.NDJSONSink

	nextMAC  uint32
	nextMgmt int
}

// New builds the farm skeleton: gateway, three networks, controller.
// Everything runs in one simulation domain on the calling goroutine.
func New(seed int64) *Farm {
	return build(sim.New(seed), nil)
}

// NewSharded builds the farm skeleton for sharded execution (see Layout):
// every subsequently added subfarm gets its own simulation domain, external
// hosts land in one dedicated external domain, and Run drives the domains
// on up to workers goroutines under conservative lookahead synchronization
// (netsim.TrunkLatency — the modeled trunk latency).
func NewSharded(seed int64, workers int) *Farm {
	s := sim.New(seed)
	return build(s, sim.NewCoordinator(s, netsim.TrunkLatency, workers))
}

// build wires the skeleton on root simulator s; coord, when non-nil, is the
// coordinator whose root s is.
func build(s *sim.Simulator, coord *sim.Coordinator) *Farm {
	f := &Farm{
		Coord:          coord,
		Sim:            s,
		Gateway:        gateway.New(s),
		InmateSwitch:   netsim.NewSwitch(s, "inmate-net"),
		InternetSwitch: netsim.NewSwitch(s, "internet"),
		MgmtSwitch:     netsim.NewSwitch(s, "mgmt-net"),
		CBL:            report.NewCBL(s),
		Fold:           report.NewFold(),
		nextMgmt:       10,
	}
	s.Obs().Journal.Follow(f.Fold)
	// Verdict bits render symbolically in journals; naming happens only at
	// serialization time, never on the datapath.
	s.Obs().Journal.SetVerdictNamer(func(v uint32) string { return shim.Verdict(v).String() })
	netsim.Connect(f.InmateSwitch.AddTrunkPort("gw-uplink"), f.Gateway.Trunk(), 0)
	netsim.Connect(f.InternetSwitch.AddAccessPort("gw", 100), f.Gateway.Outside(), 0)

	ctlHost := f.newHost("inmate-controller")
	netsim.Connect(f.MgmtSwitch.AddAccessPort("controller", 999), ctlHost.NIC(), 0)
	ctlHost.ConfigureStatic(netstack.MustParseAddr("172.16.0.1"), 24, 0)
	ctl, err := inmate.NewController(ctlHost)
	if err != nil {
		panic(err)
	}
	f.Controller = ctl
	f.ControllerHost = ctlHost

	// The external domain carries the flat Internet segment's hosts on its
	// own learning switch, bridged to the root InternetSwitch with a
	// VLAN-100 access-port pair at the trunk latency. Broadcasts (gateway
	// proxy-ARP) flood across the bridge both ways, so the segment stays one
	// flat L2 network — it just no longer runs on the root's clock.
	if coord != nil {
		f.extDomain = coord.NewDomain()
		f.extSwitch = netsim.NewSwitch(f.extDomain, "internet-ext0")
		netsim.Connect(
			f.InternetSwitch.AddAccessPort("ext0", 100),
			f.extSwitch.AddAccessPort("uplink", 100),
			netsim.TrunkLatency,
		)
	}
	return f
}

func (f *Farm) newHost(name string) *host.Host { return f.newHostIn(f.Sim, name) }

// newHostIn creates a host in simulation domain s. MAC assignment stays a
// farm-wide counter: hosts are created during topology construction
// (single-goroutine), and farm-unique MACs are what lets each router keep
// an independent learning table.
func (f *Farm) newHostIn(s *sim.Simulator, name string) *host.Host {
	f.nextMAC++
	mac := netstack.MAC{0x02, 0x42, byte(f.nextMAC >> 16), byte(f.nextMAC >> 8), byte(f.nextMAC), 0x01}
	return host.New(s, name, mac)
}

// AddExternalHost attaches a host to the flat Internet segment. On a
// sharded farm the host lives in the external domain, so the outside
// world's protocol stacks run in parallel with the gateway instead of
// serializing on the root.
func (f *Farm) AddExternalHost(name string, addr netstack.Addr) *host.Host {
	dom, sw := f.Sim, f.InternetSwitch
	if f.extDomain != nil {
		dom, sw = f.extDomain, f.extSwitch
	}
	h := f.newHostIn(dom, name)
	netsim.Connect(sw.AddAccessPort(name, 100), h.NIC(), 0)
	h.ConfigureStatic(addr, 0, 0) // flat Internet: everything on-link
	f.extHosts = append(f.extHosts, h)
	return h
}

// Run advances the whole farm by d of virtual time — through the
// coordinator when the farm is sharded, directly otherwise.
func (f *Farm) Run(d time.Duration) {
	if f.Coord != nil {
		f.Coord.RunFor(d)
		return
	}
	f.Sim.RunFor(d)
}

// InmateVLANs lists the subfarm's inmate VLANs in ascending order: the
// order to walk Inmates in whenever the walk has observable effects, since
// map order would leak into the journal.
func (sf *Subfarm) InmateVLANs() []uint16 {
	vlans := make([]uint16, 0, len(sf.Inmates))
	for vlan := range sf.Inmates {
		vlans = append(vlans, vlan)
	}
	slices.Sort(vlans)
	return vlans
}

// RetireInmates terminates every inmate on the farm, subfarm by subfarm in
// VLAN order. Call between Run calls, before the drain that lets the flow
// tables empty.
func (f *Farm) RetireInmates() {
	for _, sf := range f.Subfarms {
		for _, vlan := range sf.InmateVLANs() {
			sf.Inmates[vlan].Terminate()
		}
	}
}

// SubfarmConfig parameterises one independent experiment habitat (Fig. 3).
type SubfarmConfig struct {
	Name           string
	VLANLo, VLANHi uint16
	// ServiceVLAN hosts this subfarm's infrastructure.
	ServiceVLAN uint16

	InternalPrefix netstack.Prefix // default 10.0.0.0/16
	ServicePrefix  netstack.Prefix // default 10.3.0.0/16
	GlobalPool     netstack.Prefix
	InfraPool      netstack.Prefix
	InboundMode    nat.Mode

	// PolicyConfig is the Fig. 6 containment server configuration text.
	PolicyConfig string
	// FallbackPolicy names the decider for unassigned VLANs (default
	// DefaultDeny).
	FallbackPolicy string

	// SampleLibrary holds the specimens Infection globs select from.
	SampleLibrary []*policy.Sample
	// RepeatBatches re-serves the last sample at batch end (long-running
	// deployments).
	RepeatBatches bool

	// CCHosts names family C&C endpoints for policies and specimens, the
	// GMail MX that Waledac-class bots probe among them.
	CCHosts map[string]policy.AddrPort
	// SpamTargets are the MXes specimens will try to deliver to.
	SpamTargets []netstack.Addr
	// SpamBatch sets how many messages a spambot delivers per SMTP
	// session (0 = the specimen default of one). The paper's Table 1
	// engines batch aggressively — Rustock pushes many DATA transactions
	// down one connection — so spam-heavy reproductions set this to keep
	// sessions long-lived rather than one-shot.
	SpamBatch int

	// SinkDropProb configures the SMTP sink's probabilistic connection
	// dropping.
	SinkDropProb float64
	// SinkStrictness selects the sinks' SMTP engine tolerance.
	SinkStrictness smtpx.Strictness
	// BannerGrab enables the banner-grabbing sink behaviour.
	BannerGrab bool

	// AccessLatency is the one-way latency of every inmate and service
	// access link in the subfarm (0 = ideal wire). Setting it models the
	// switched path plus host turnaround, so protocol dialogs occupy
	// virtual time the way they occupy wall time on the real farm instead
	// of collapsing into instantaneous event cascades.
	AccessLatency time.Duration

	// ContainmentServers > 1 deploys a cluster of containment servers with
	// sticky per-inmate selection (§7.2 scalability extension).
	ContainmentServers int

	// GRETunnels graft additional routable address space from cooperating
	// networks (§7.2); NAT spills into the tunnel pools once GlobalPool is
	// exhausted. Deploy a gateway.GREPeer on the Internet switch to own
	// the other end.
	GRETunnels []gateway.GRETunnel
}

// Subfarm is one running habitat.
type Subfarm struct {
	Farm   *Farm
	Name   string
	Config SubfarmConfig
	Router *gateway.Router

	// Sim is the simulation domain this subfarm runs in: the farm's root
	// simulator normally, a dedicated domain when the farm is sharded.
	Sim *sim.Simulator
	// sw is the switch carrying this subfarm's VLANs: the farm-wide
	// InmateSwitch normally, a private per-subfarm switch when sharded.
	sw *netsim.Switch

	CS     *containment.Server
	CSHost *host.Host
	CSMgmt *host.Host
	// CSCluster holds all containment server instances (index 0 == CS).
	CSCluster    []*containment.Server
	Policy       *policy.Env
	PolicyConfig *policy.Config
	Samples      *policy.BatchProvider

	CatchAll   *sink.CatchAll
	SMTPSink   *sink.SMTPSink
	BannerSink *sink.SMTPSink

	// sinks lists the supervisable sink servers, one per sinkTable row,
	// with their hosts and probe ports.
	sinks []supervisor.Endpoint

	// SvcHosts indexes the service-VLAN hosts by role ("cs0", "cs1", ...,
	// "catchall", "smtpsink", "bannersink", "httpsink") so fault injection
	// can take individual services down and bring them back.
	SvcHosts map[string]*host.Host

	// Supervisor, when non-nil (the subfarm's node of Farm.SuperviseTree),
	// self-heals the containment plane: heartbeat health tracking,
	// health-aware dispatch, supervised restarts, inmate quarantine.
	Supervisor *supervisor.Supervisor

	// FacadeEcho, when non-nil (see AttachFacadeEcho), is the blocking-
	// facade self-test pair running inside the habitat.
	FacadeEcho *FacadeEcho

	SMTPAnalyzer *report.SMTPAnalyzer

	VLANs   *inmate.VLANPool
	Inmates map[uint16]*FarmInmate

	// OnBootHook, when set, replaces the default auto-infection boot
	// sequence (worm experiments install vulnerable services instead).
	OnBootHook func(fi *FarmInmate)

	// RawIron and Recycler, when non-nil (see StartIronRotation), manage
	// the subfarm's physical boxes and drive them through the
	// detonate→capture→reimage→readmit pipeline.
	RawIron  *rawiron.Controller
	Recycler *Recycler
}

// Service addresses within a subfarm's service prefix.
// Service addresses within a subfarm's service prefix (the sinks' offsets,
// 2-5, are sinkTable's).
const (
	csAddrOff         = 1 // .0.1
	bannerSinkOff     = 4
	defaultSvcGateway = 254
)

// DefaultAutoinfect is the virtual auto-infection server location used
// when the policy config does not specify one.
var DefaultAutoinfect = policy.AddrPort{Addr: netstack.MustParseAddr("10.9.8.7"), Port: 6543}

// ContainmentPort is the containment servers' service port.
const ContainmentPort = 6666
