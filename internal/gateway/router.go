package gateway

import (
	"fmt"
	"sort"
	"time"

	"gq/internal/nat"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// RouterConfig is a subfarm's packet-router configuration: the small,
// per-subfarm module (≈40 lines in the paper's Click setup) layered over
// the invariant forwarding elements.
type RouterConfig struct {
	Name string

	// VLANLo..VLANHi is the subfarm's inmate VLAN ID range.
	VLANLo, VLANHi uint16
	// ServiceVLANs hold infrastructure hosts (DHCP, DNS, sinks, the
	// containment server) forming the restricted broadcast domain together
	// with the inmate VLANs.
	ServiceVLANs []uint16

	// InternalPrefix is the inmates' RFC 1918 subnet; RouterIP the
	// gateway's address on it (the inmates' default route).
	InternalPrefix netstack.Prefix
	RouterIP       netstack.Addr
	// ServicePrefix is the service hosts' subnet; ServiceRouterIP the
	// gateway's address there (the services' default route).
	ServicePrefix   netstack.Prefix
	ServiceRouterIP netstack.Addr

	// GlobalPool is the subfarm's routable address space; the first
	// GlobalPoolStart host indices are reserved.
	GlobalPool      netstack.Prefix
	GlobalPoolStart int
	InboundMode     nat.Mode

	// InfraPool is routable address space for the farm's own
	// infrastructure (§6.7 dedicates one network to making the control
	// infrastructure externally available). Service hosts that originate
	// traffic — e.g. the banner-grabbing SMTP sink — are statically
	// NAT'd into this pool, bypassing containment. Zero means service
	// hosts cannot reach out.
	InfraPool netstack.Prefix

	// NonceIP is the gateway-side address the containment server dials
	// for nonce-port connections (Fig. 5).
	NonceIP netstack.Addr

	// GRETunnels graft additional routable address space from cooperating
	// networks (§7.2). NAT draws from the tunnel pools once GlobalPool is
	// exhausted.
	GRETunnels []GRETunnel

	// ContainmentCluster locates the containment servers: one, or several
	// (§7.2), among which the router selects per inmate, with the same
	// server always handling the same inmate.
	ContainmentCluster []ContainmentEndpoint

	// Safety filter thresholds (§5.1): the rate of connections across
	// destinations and to a given destination never exceeds these.
	MaxFlowsPerMinute        int // per inmate, across destinations; 0 = no limit
	MaxFlowsPerDestPerMinute int // per (inmate, destination); 0 = no limit
}

// DefaultAwaitVerdictTimeout bounds how long a flow may await its verdict
// before the sweep resolves it fail-closed.
const DefaultAwaitVerdictTimeout = time.Minute

// DefaultMaxFlows bounds the flow table (ActiveFlows): at the bound the
// least-recently-active flow is shed.
const DefaultMaxFlows = 4096

// ContainmentEndpoint locates one containment server instance.
type ContainmentEndpoint struct {
	VLAN uint16
	IP   netstack.Addr
	Port uint16
}

// flowKey is one key of a flow in Router.index (DESIGN.md §3g), of one of
// the kinds below; a flow owns at most one of each (Flow.keys). Its kind and
// protocol are widened from a byte so that the key is 16 bytes with no
// padding, which the index hashes in one call (DESIGN.md §3b).
type flowKey struct {
	ip, peer       netstack.Addr
	port, peerPort uint16
	kind, proto    uint16
}

const (
	keyInit   = iota // the initiator's endpoint (TCP), plus the original responder (UDP)
	keyActual        // UDP, from the verdict on: the initiator plus the actual responder
	keyNonce         // the flow's nonce port
	keyLeg2          // the containment server's end of leg 2 (REWRITE)
	numKeyKinds
)

// endpointKey keys a flow by its initiator's endpoint. A TCP connection is
// that endpoint's alone, whoever answers, so a TCP flow's keyActual is its
// keyInit; one UDP socket talks to many peers, so a UDP key holds the peer.
func endpointKey(kind uint16, proto uint8, ip netstack.Addr, port uint16, peer netstack.Addr, peerPort uint16) flowKey {
	if proto != netstack.ProtoUDP {
		return flowKey{kind: keyInit, proto: uint16(proto), ip: ip, port: port}
	}
	return flowKey{kind: kind, proto: uint16(proto), ip: ip, port: port, peer: peer, peerPort: peerPort}
}

func nonceKey(port uint16) flowKey { return flowKey{kind: keyNonce, port: port} }

// leg2Key keys the containment server's end of a leg-2 packet's connection.
func leg2Key(k netstack.FlowKey) flowKey {
	return flowKey{kind: keyLeg2, proto: uint16(k.Proto), ip: k.SrcIP, port: k.SrcPort}
}

// synTombKey identifies one fail-closed TCP flow incarnation by its full
// initiator tuple plus ISN (see Router.synTombs): 16 bytes, no padding.
type synTombKey struct {
	srcIP, dstIP     netstack.Addr
	srcPort, dstPort uint16
	isn              uint32
}

// synTombstoneTTL bounds how long a fail-closed SYN key is remembered. The
// reset we send can itself be lost on an impaired inmate link, in which
// case the initiator keeps retransmitting on its backoff schedule — 1, 2,
// 4, 8, 16 seconds, i.e. a last copy up to 31s after the first SYN — so
// the tombstone must outlive the whole schedule, not just copies already
// in flight.
const synTombstoneTTL = 35 * time.Second

// maxSynTombs bounds a router's SYN tombstones: every flow the table can hold
// failing closed twice within one tombstone's lifetime.
const maxSynTombs = 2 * DefaultMaxFlows

// maxRateDests bounds the (VLAN, destination) pairs one safety-filter window
// counts, like maxLearnedMACs a ceiling on what a scanning inmate can make
// the gateway remember.
const maxRateDests = 8192

// Router is one subfarm's packet router. Each router runs in exactly one
// simulation domain (r.sim): the gateway's own for a single-domain farm,
// the subfarm's for a sharded one. All router state — flow table, NAT,
// bridging tables, sweeps — is touched only from that domain.
type Router struct {
	gw  *Gateway
	sim *sim.Simulator
	cfg RouterConfig

	// Sharded-topology ports, nil in a single-domain farm: trunk is the
	// router's private tagged link into its subfarm switch; uplink (router
	// domain) <-> uplinkCore (gateway domain) carry outside-bound and
	// inbound frames across the shard boundary at lookahead latency.
	trunk      *netsim.Port
	uplink     *netsim.Port
	uplinkCore *netsim.Port
	// hand is the router domain's frame list and received frame: the
	// gateway's own in a single-domain farm.
	hand *hand
	// One parse buffer per receiving port, like the gateway's: rxTrunk and
	// rxUplink belong to the router's domain, rxCore to the core's.
	rxTrunk, rxUplink, rxCore netstack.ParseBuf

	// L2 bridging state for the subfarm's restricted broadcast domain.
	// MAC addresses are farm-unique, and bridging only ever targets VLANs
	// this router owns, so the per-router table behaves identically to
	// the former gateway-wide one. Inmates choose their source MACs, so
	// the table holds at most maxLearnedMACs entries (see learnMAC).
	macTable     map[netstack.MAC]uint16 // MAC -> VLAN where last seen
	macTableFull *obs.Counter            // nil until the first overflow

	// scratch is the reusable marshal buffer for flood paths that emit the
	// same packet several times (see emitTrunk). Valid only within a
	// single synchronous call chain; Port.Send copies before the event
	// returns.
	scratch []byte

	// segOut and dgramOut are the headers of the packet the router is
	// originating (newSegment, newDatagram), shimOut the request shim or
	// heartbeat it carries. Each is rebuilt by the next packet: valid only
	// until the send the packet is handed to returns (DESIGN.md §3b).
	segOut   segmentHeaders
	dgramOut datagramHeaders
	shimOut  [shim.RequestLen]byte

	nat *nat.Table

	// index finds a flow by any key it owns; register and unregister are
	// its only writers. indexed counts the keys of each kind.
	index     map[flowKey]*Flow
	indexed   [numKeyKinds]int
	nextNonce uint16

	// inmates holds one slot per inmate VLAN, at vlan - VLANLo: what the
	// router last learned from that VLAN's frames (see learnMAC,
	// learnInmate). inmateVLAN maps an inmate's address to its VLAN; inmates
	// choose their addresses, so it is bounded like macTable.
	inmates        []slot
	inmateVLAN     map[netstack.Addr]uint16
	inmateVLANFull *obs.Counter // nil until the first overflow

	// VLAN-side ARP (for reaching service hosts and inmates). Inmates
	// choose the sender addresses, so it is bounded like macTable (see
	// learnVLANARP).
	vlanARP     map[vlanAddr]netstack.MAC
	vlanARPFull *obs.Counter // nil until the first overflow
	vlanPending *netsim.Waits[vlanAddr, []byte]

	// Safety filter state: fixed one-minute windows. Inmates choose the
	// destinations rateDest is keyed by, so it holds at most maxRateDests
	// (see safetyCheck).
	rateWindow   time.Duration
	rateAll      map[uint16]int
	rateDest     map[vlanAddr]int
	rateDestFull *obs.Counter // nil until the first overflow
	SafetyDrops  *obs.Counter

	// Service host registry: sinks and other infrastructure reachable as
	// flow responders, keyed by address.
	serviceHosts map[netstack.Addr]uint16

	// Static infrastructure NAT (service host <-> InfraPool address).
	infraOut  map[netstack.Addr]netstack.Addr
	infraIn   map[netstack.Addr]netstack.Addr
	infraNext int

	// Records of all flows, for reporting.
	records []*FlowRecord

	// Taps observe packets traversing this subfarm (inmate-side, i.e. with
	// unroutable internal addresses, per §5.6).
	taps []func(p *netstack.Packet)

	// sc is the subfarm's journal scope / flight recorder.
	sc *obs.Scope

	// DefaultMaxFlows and DefaultAwaitVerdictTimeout, which tests tighten.
	maxFlows            int
	awaitVerdictTimeout time.Duration

	// Containment-plane health, driven by internal/supervisor: csDown[i]
	// mirrors cluster member i's health, healthPorts demultiplexes
	// heartbeat echoes back to the supervisor by probe source port, and
	// onHealthReply delivers them. All touched only from the router's
	// domain, like the rest of the flow state.
	csDown        []bool
	healthPorts   map[uint16]int
	onHealthReply func(idx int, seq uint64)

	// synTombs remembers the (tuple, ISN) of TCP flows fail-closed before
	// their SYN-ACK was relayed: the initiator was reset, but a SYN
	// retransmission already in flight would otherwise re-admit the flow
	// under the same ISN — double-counting it against the trace audit,
	// which dedups flows by ISN. Entries expire after synTombstoneTTL.
	// Inmates choose the tuples and ISNs, so it holds at most maxSynTombs
	// (see tombstone).
	synTombs     map[synTombKey]time.Duration
	synTombsFull *obs.Counter // nil until the first overflow

	// lockdown is the fail-closed switch (see SetLockdown): while set,
	// every flow-creation site drops instead of admitting, so no new
	// traffic crosses the containment boundary. Engaged by the supervision
	// tree when the containment plane stays dead past its budget, or by an
	// operator via the ops plane.
	lockdown bool

	// Counters, registered once in newRouter (see internal/obs).
	FlowsCreated, VerdictsApplied *obs.Counter
	SweepReaped                   *obs.Counter
	FlowsFailClosed               *obs.Counter
	NATExhausted                  *obs.Counter
	LimitDrops                    *obs.Counter
	Retransmits                   *obs.Counter
	FlowsShed                     *obs.Counter
	LockdownDrops                 *obs.Counter
	FlowsActive                   *obs.Gauge
	VerdictLatencyUS              *obs.Histogram
	// greUp remembers which tunnel endpoints already emitted gre.tunnel_up.
	greUp map[netstack.Addr]bool
}

// vlanAddr keys an address on one VLAN. The VLAN is widened to 32 bits so
// that the key is 8 bytes with no padding (DESIGN.md §3b).
type vlanAddr struct {
	vlan uint32
	addr netstack.Addr
}

// slot is what the router learned from one inmate VLAN's frames, so that a
// frame repeating it writes no table (DESIGN.md §3b). Each part holds only
// while the table it mirrors still says the same, and the one writer of that
// table clears it otherwise: learnMAC when src moves to another VLAN,
// learnInmate when another VLAN takes addr, and the NAT table's generation
// when Release frees bind.
type slot struct {
	src   netstack.MAC // the source MAC macTable maps to this VLAN, while srcOK
	srcOK bool

	mac    netstack.MAC // the inmate's MAC, once hasMAC (sendToVLAN's fallback)
	hasMAC bool
	addr   netstack.Addr // the inmate's address, mapped here by inmateVLAN while bind is set
	bind   *nat.Binding  // addr's binding, nil when not (or no longer) learned
	natGen uint64        // r.nat.Gen() when bind was learned

	natExhausted bool // nat.exhausted was emitted: once per VLAN, as it repeats on every frame
}

func newRouter(g *Gateway, s *sim.Simulator, cfg RouterConfig) *Router {
	r := &Router{
		gw: g, sim: s, cfg: cfg, hand: handOf(s),
		macTable:     make(map[netstack.MAC]uint16),
		nat:          nat.NewTable(cfg.GlobalPool, cfg.GlobalPoolStart, cfg.InboundMode),
		index:        make(map[flowKey]*Flow),
		nextNonce:    40000,
		inmateVLAN:   make(map[netstack.Addr]uint16),
		vlanARP:      make(map[vlanAddr]netstack.MAC),
		rateAll:      make(map[uint16]int),
		rateDest:     make(map[vlanAddr]int),
		serviceHosts: make(map[netstack.Addr]uint16),
		infraOut:     make(map[netstack.Addr]netstack.Addr),
		infraIn:      make(map[netstack.Addr]netstack.Addr),
		infraNext:    1,

		maxFlows:            DefaultMaxFlows,
		awaitVerdictTimeout: DefaultAwaitVerdictTimeout,
		greUp:               make(map[netstack.Addr]bool),
	}
	if cfg.VLANHi >= cfg.VLANLo {
		r.inmates = make([]slot, int(cfg.VLANHi-cfg.VLANLo)+1)
	}
	r.vlanPending = netsim.NewWaits[vlanAddr, []byte](s, r.arpVLAN)
	r.csDown = make([]bool, len(cfg.ContainmentCluster))
	r.healthPorts = make(map[uint16]int)
	r.synTombs = make(map[synTombKey]time.Duration)
	o := s.Obs()
	pfx := "subfarm." + cfg.Name + "."
	r.FlowsCreated = o.Reg.Counter(pfx + "flows_created")
	r.VerdictsApplied = o.Reg.Counter(pfx + "verdicts_applied")
	r.SafetyDrops = o.Reg.Counter(pfx + "safety_drops")
	r.SweepReaped = o.Reg.Counter(pfx + "sweep_reaped")
	r.FlowsFailClosed = o.Reg.Counter(pfx + "flows_failclosed")
	r.NATExhausted = o.Reg.Counter(pfx + "nat_exhausted")
	r.LimitDrops = o.Reg.Counter(pfx + "limit_drops")
	r.Retransmits = o.Reg.Counter(pfx + "retransmits")
	r.FlowsShed = o.Reg.Counter(pfx + "flows_shed")
	r.LockdownDrops = o.Reg.Counter(pfx + "lockdown_drops")
	r.FlowsActive = o.Reg.Gauge(pfx + "flows_active")
	r.VerdictLatencyUS = o.Reg.Histogram(pfx+"verdict_latency_us",
		100, 200, 500, 1000, 2000, 5000, 10000, 50000, 100000, 500000)
	r.sc = o.Scope(cfg.Name, obs.DefaultRingSize)
	for _, ep := range cfg.ContainmentCluster {
		r.serviceHosts[ep.IP] = ep.VLAN
	}
	r.attachTunnels()
	// Roll the safety-filter window every minute. Both periodic jobs run
	// in the router's own domain.
	s.Every(time.Minute, func() {
		clear(r.rateAll)
		clear(r.rateDest)
	})
	// Sweep idle and stalled flows.
	s.Every(30*time.Second, r.sweepFlows)
	if s != g.Sim {
		// Sharded topology: private trunk plus the cross-domain uplink
		// pair. The uplink latency is exactly the coordinator's lookahead
		// — the modeled trunk wire that makes conservative
		// synchronization sound.
		r.trunk = netsim.NewPort(s, "gw/trunk-"+cfg.Name, r.recvTrunkFrame)
		r.uplink = netsim.NewPort(s, "gw/uplink-"+cfg.Name, r.recvFromCore)
		r.uplinkCore = netsim.NewPort(g.Sim, "gw/core-"+cfg.Name, r.recvAtCore)
		netsim.Connect(r.uplink, r.uplinkCore, s.CrossFloor(g.Sim))
	}
	return r
}

// TrunkPort returns the port a subfarm switch trunk should wire into: the
// router's private trunk in a sharded farm, the gateway's shared trunk
// otherwise.
func (r *Router) TrunkPort() *netsim.Port {
	if r.trunk != nil {
		return r.trunk
	}
	return r.gw.trunk
}

// Sim returns the simulation domain this router runs in.
func (r *Router) Sim() *sim.Simulator { return r.sim }

// recvTrunkFrame receives frames on the router's private trunk (sharded
// topology only). It mirrors Gateway.recvTrunk but skips VLAN routing:
// everything on this trunk is ours.
func (r *Router) recvTrunkFrame(frame []byte) {
	r.hand.hold(frame)
	defer r.hand.release()
	r.gw.TrunkRx.Inc()
	p, err := r.rxTrunk.Parse(frame)
	if err != nil || p.Eth.VLAN == netstack.NoVLAN {
		return
	}
	if !r.ownsVLAN(p.Eth.VLAN) {
		return
	}
	r.receiveTrunk(p)
}

// receiveTrunk is the router's trunk ingress: learn L2 placement, then
// dispatch by frame type. Runs in the router's domain.
func (r *Router) receiveTrunk(p *netstack.Packet) {
	// Learn where this MAC lives for broadcast-domain bridging.
	if !p.Eth.Src.IsBroadcast() && !p.Eth.Src.IsZero() {
		r.learnMAC(p.Eth.Src, p.Eth.VLAN)
	}
	if p.ARP != nil {
		r.handleARP(p)
		return
	}
	// Frames addressed to the gateway itself go to the router's IP logic;
	// anything else is a candidate for intra-farm L2 bridging.
	if p.Eth.Dst == GatewayMAC {
		r.handleIP(p)
		return
	}
	r.bridge(p)
}

// maxLearnedMACs bounds a router's bridging table, its VLAN-side ARP cache
// and its inmate addresses: twice the 802.1Q VLAN space, i.e. one machine per
// inmate VLAN with room for every service host, and a ceiling on what a
// spoofing inmate can make the gateway remember.
const maxLearnedMACs = 8192

// slotOf returns an inmate VLAN's slot, nil for any other VLAN.
func (r *Router) slotOf(vlan uint16) *slot {
	if !r.isInmateVLAN(vlan) {
		return nil
	}
	return &r.inmates[vlan-r.cfg.VLANLo]
}

// learnMAC records where a source MAC was last seen. An inmate VLAN's frame
// from the MAC its slot holds changes nothing and is not looked up. At the
// bound a MAC the table already holds may still move; a new one is not
// learned, and counted in subfarm.<name>.mac_table_full (see refuse).
func (r *Router) learnMAC(mac netstack.MAC, vlan uint16) {
	s := r.slotOf(vlan)
	if s != nil && s.srcOK && s.src == mac {
		return
	}
	old, known := r.macTable[mac]
	switch {
	case !known && len(r.macTable) >= maxLearnedMACs:
		r.refuse(&r.macTableFull, "mac_table_full")
		return
	case !known || old != vlan:
		if o := r.slotOf(old); known && o != nil && o.src == mac {
			o.srcOK = false // moved away
		}
		r.macTable[mac] = vlan
	}
	if s != nil {
		s.src, s.srcOK = mac, true
	}
}

// learnVLANARP records an ARP sender's MAC under its VLAN and address, with
// macTable's rule: at the bound a held entry may still change; a new one is
// not learned, and counted in subfarm.<name>.vlan_arp_full.
func (r *Router) learnVLANARP(key vlanAddr, mac netstack.MAC) {
	if len(r.vlanARP) >= maxLearnedMACs {
		if _, known := r.vlanARP[key]; !known {
			r.refuse(&r.vlanARPFull, "vlan_arp_full")
			return
		}
	}
	r.vlanARP[key] = mac
}

// refuse counts an entry a bounded table turned away in subfarm.<name>.<series>,
// registering the series on the first refusal, so a farm nobody attacks
// snapshots what it always did.
func (r *Router) refuse(c **obs.Counter, series string) {
	if *c == nil {
		*c = r.sim.Obs().Reg.Counter("subfarm." + r.cfg.Name + "." + series)
	}
	(*c).Inc()
}

// bridge forwards a frame between VLANs of the restricted broadcast domain
// (inmate VLANs <-> service VLANs of the same subfarm). Inmate-to-inmate
// unicast is dropped: inmates reach each other only through a verdict.
func (r *Router) bridge(p *netstack.Packet) {
	srcVLAN := p.Eth.VLAN
	if p.Eth.Dst.IsBroadcast() {
		// Flood into the other half of the broadcast domain.
		if r.isServiceVLAN(srcVLAN) {
			for vlan := r.cfg.VLANLo; vlan <= r.cfg.VLANHi; vlan++ {
				r.emitTrunk(p, vlan)
			}
		} else {
			for _, sv := range r.cfg.ServiceVLANs {
				r.emitTrunk(p, sv)
			}
		}
		return
	}
	dstVLAN, known := r.macTable[p.Eth.Dst]
	if !known || dstVLAN == srcVLAN || !r.ownsVLAN(dstVLAN) {
		return
	}
	srcInmate, dstInmate := !r.isServiceVLAN(srcVLAN), !r.isServiceVLAN(dstVLAN)
	if srcInmate && dstInmate {
		return
	}
	// p arrived tagged on the trunk, so its frame always retags: every
	// frame counted is a frame sent.
	r.gw.Bridged.Inc()
	r.emitTrunk(p, dstVLAN)
}

// emitTrunk retags a packet and transmits it on the trunk. The packet is
// not consumed: the frame is staged in the router's scratch buffer and
// retagged there, so flood loops reuse one buffer instead of cloning and
// re-marshalling per target VLAN.
func (r *Router) emitTrunk(p *netstack.Packet, vlan uint16) {
	r.scratch = p.AppendWire(r.scratch[:0])
	if !netstack.RetagVLAN(r.scratch, vlan) {
		return
	}
	r.TrunkPort().Send(r.scratch) // Send copies; scratch stays ours
}

// sendTrunk transmits a crafted packet (already addressed) on the trunk,
// consuming it: the marshalled frame may alias the packet's buffer.
func (r *Router) sendTrunk(p *netstack.Packet) { r.TrunkPort().SendOwned(r.hand.marshal(p)) }

// sendOutside routes an outbound IP packet toward the upstream network:
// GRE-encapsulating tunnelled source space here (tunnel state lives in the
// router's domain), then handing the result to the gateway core — directly
// in a single-domain farm, over the uplink in a sharded one.
func (r *Router) sendOutside(p *netstack.Packet) {
	if p.IP.Protocol != netstack.ProtoGRE {
		if t := r.tunnelForSrc(p.IP.Src); t != nil {
			r.greEncapAndSend(t, p)
			return
		}
	}
	r.emitOutside(p)
}

// emitOutside ships a wire-ready outbound packet to the gateway core.
func (r *Router) emitOutside(p *netstack.Packet) {
	if r.uplink != nil {
		p.Eth.VLAN = netstack.NoVLAN
		p.Eth.EtherType = netstack.EtherTypeIPv4
		r.uplink.SendOwned(r.hand.marshal(p))
		return
	}
	r.gw.emitOutside(p)
}

// recvAtCore runs in the gateway core's domain: outbound frames arriving
// over the router's uplink re-parse and continue on the core's upstream
// path (ARP resolution, taps, transmission).
func (r *Router) recvAtCore(frame []byte) {
	r.gw.hand.hold(frame)
	defer r.gw.hand.release()
	p, err := r.rxCore.Parse(frame)
	if err != nil || p.IP == nil {
		return
	}
	r.gw.emitOutside(p)
}

// recvFromCore runs in the router's domain: inbound frames the core
// dispatched to this router's global space.
func (r *Router) recvFromCore(frame []byte) {
	r.hand.hold(frame)
	defer r.hand.release()
	p, err := r.rxUplink.Parse(frame)
	if err != nil || p.IP == nil {
		return
	}
	r.dispatchFromOutside(p)
}

// dispatchFromOutside classifies an inbound packet for this router's
// address space: GRE tunnel arrivals, infrastructure-pool traffic, and
// everything else (inmate-bound flows). Runs in the router's domain.
func (r *Router) dispatchFromOutside(p *netstack.Packet) {
	if p.IP.Protocol == netstack.ProtoGRE {
		// Tunnel traffic terminating at one of our GRE endpoints.
		if t := r.tunnelForEndpoint(p.IP.Dst); t != nil {
			r.handleGRE(p)
		}
		return
	}
	if r.cfg.InfraPool.Bits != 0 && r.cfg.InfraPool.Contains(p.IP.Dst) {
		r.handleInfraInbound(p)
		return
	}
	r.handleFromOutside(p)
}

// Config returns the router configuration.
func (r *Router) Config() RouterConfig { return r.cfg }

// NAT exposes the subfarm's NAT table.
func (r *Router) NAT() *nat.Table { return r.nat }

// AddTap registers a subfarm trace tap (internal addressing). The packet a
// tap is handed is valid until the tap returns; a tap that keeps it calls
// Clone.
func (r *Router) AddTap(t func(p *netstack.Packet)) { r.taps = append(r.taps, t) }

func (r *Router) ownsVLAN(vlan uint16) bool {
	if vlan >= r.cfg.VLANLo && vlan <= r.cfg.VLANHi {
		return true
	}
	return r.isServiceVLAN(vlan)
}

func (r *Router) isServiceVLAN(vlan uint16) bool {
	for _, sv := range r.cfg.ServiceVLANs {
		if sv == vlan {
			return true
		}
	}
	return false
}

func (r *Router) isInmateVLAN(vlan uint16) bool {
	return vlan >= r.cfg.VLANLo && vlan <= r.cfg.VLANHi
}

// RegisterServiceHost records where a service host (sink, proxy) lives so
// verdicts can route flows to it.
func (r *Router) RegisterServiceHost(addr netstack.Addr, vlan uint16) {
	r.serviceHosts[addr] = vlan
}

// serviceVLANFor resolves a service host's VLAN.
func (r *Router) serviceVLANFor(addr netstack.Addr) (uint16, bool) {
	vlan, ok := r.serviceHosts[addr]
	return vlan, ok
}

// InmateByVLAN returns the learned (internal address, MAC) of an inmate.
func (r *Router) InmateByVLAN(vlan uint16) (netstack.Addr, netstack.MAC, bool) {
	b := r.nat.ByVLAN(vlan)
	if b == nil {
		return 0, netstack.MAC{}, false
	}
	return b.Internal, b.MAC, true
}

// Records returns all flow records.
func (r *Router) Records() []*FlowRecord { return r.records }

// ActiveFlows reports live flow-table entries (flows plus live leg-2
// registrations), for leak detection in tests and operations dashboards.
func (r *Router) ActiveFlows() int {
	return r.indexed[keyInit] + r.indexed[keyLeg2]
}

// handleARP answers ARP requests addressed to the gateway's router IPs and
// bridges everything else within the broadcast domain.
func (r *Router) handleARP(p *netstack.Packet) {
	a := p.ARP
	// Learn inmate addressing from chatter.
	if r.isInmateVLAN(p.Eth.VLAN) && !a.SenderIP.IsZero() {
		r.learnInmate(p.Eth.VLAN, a.SenderIP, a.SenderHW)
	}
	if !a.SenderIP.IsZero() {
		key := vlanAddr{uint32(p.Eth.VLAN), a.SenderIP}
		r.learnVLANARP(key, a.SenderHW)
		r.flushVLANPending(key, a.SenderHW)
	}
	if a.Op == netstack.ARPRequest {
		var mine netstack.Addr
		switch {
		case a.TargetIP == r.cfg.RouterIP:
			mine = r.cfg.RouterIP
		case a.TargetIP == r.cfg.ServiceRouterIP:
			mine = r.cfg.ServiceRouterIP
		case a.TargetIP == r.cfg.NonceIP:
			mine = r.cfg.NonceIP
		default:
			// Not ours: bridge the broadcast within the domain so inmates
			// can resolve infrastructure hosts (DHCP, DNS).
			r.bridge(p)
			return
		}
		r.sendTrunk(netstack.NewARPReply(p.Eth.VLAN, GatewayMAC, mine, a))
		return
	}
	// ARP replies: bridge toward the querier if it lives elsewhere.
	r.bridge(p)
}

// learnInmate records an inmate VLAN's address and MAC in its slot, in
// inmateVLAN and in the NAT table. A frame that repeats what the slot holds,
// while its binding is live, changes nothing and writes nothing. At the bound
// an address inmateVLAN holds may still move; a new one is not learned, and
// counted in subfarm.<name>.inmate_addr_full.
func (r *Router) learnInmate(vlan uint16, addr netstack.Addr, mac netstack.MAC) {
	if !r.cfg.InternalPrefix.Contains(addr) {
		return
	}
	s := r.slotOf(vlan)
	if b := s.bind; b != nil && s.addr == addr && s.mac == mac && b.Internal == addr && b.MAC == mac && s.natGen == r.nat.Gen() {
		return
	}
	s.mac, s.hasMAC, s.addr = mac, true, addr
	held := true
	switch old, known := r.inmateVLAN[addr]; {
	case !known && len(r.inmateVLAN) >= maxLearnedMACs:
		r.refuse(&r.inmateVLANFull, "inmate_addr_full")
		held = false
	case !known || old != vlan:
		if o := r.slotOf(old); known && o != nil && o.addr == addr {
			o.bind = nil // re-addressed: addr is vlan's now
		}
		r.inmateVLAN[addr] = vlan
	}
	b := r.nat.Learn(vlan, addr, mac)
	if b == nil && !s.natExhausted {
		// Global pool (plus any tunnel pools) had no free address: this
		// inmate is unroutable until capacity frees up. Record it once per
		// VLAN — the condition repeats on every packet the inmate sends.
		s.natExhausted = true
		r.NATExhausted.Inc()
		r.sc.Emit(obs.Event{Type: obs.EvNATExhausted, VLAN: vlan, SrcIP: uint32(addr)})
	}
	s.bind, s.natGen = b, r.nat.Gen()
	if !held {
		s.bind = nil // not in inmateVLAN: the next frame tries again
	}
}

// handleIP is the entry point for IP packets addressed to the gateway MAC
// on the trunk.
func (r *Router) handleIP(p *netstack.Packet) {
	if p.IP == nil {
		// Not IP after all — e.g. a corrupted EtherType that still parsed.
		// Nothing routable; drop.
		return
	}
	if r.isInmateVLAN(p.Eth.VLAN) {
		r.learnInmate(p.Eth.VLAN, p.IP.Src, p.Eth.Src)
		// The invariant inmate receive pipeline: trace taps, L4 classify
		// (anything but TCP/UDP is dropped), flow dispatch.
		for _, t := range r.taps {
			t(p)
		}
		if p.TCP != nil || p.UDP != nil {
			r.dispatchInmateIP(p)
		}
		return
	}
	// From a service VLAN: containment-server traffic or sink replies.
	r.dispatchServiceIP(p)
}

// safetyCheck enforces connection-rate thresholds for new flows from an
// inmate. It returns false when the flow must be dropped. A window counts
// only while its limit is set: rateDest is keyed by destinations the inmate
// chooses. When it holds maxRateDests, a flow to a destination it does not
// hold cannot be counted, so it is dropped like one over its limit and
// counted in subfarm.<name>.rate_dest_full.
func (r *Router) safetyCheck(vlan uint16, dst netstack.Addr) bool {
	all, perDest := r.cfg.MaxFlowsPerMinute, r.cfg.MaxFlowsPerDestPerMinute
	key := vlanAddr{uint32(vlan), dst}
	n, known := r.rateDest[key]
	if (all > 0 && r.rateAll[vlan] >= all) || (perDest > 0 && n >= perDest) {
		r.SafetyDrops.Inc()
		return false
	}
	if perDest > 0 && !known && len(r.rateDest) >= maxRateDests {
		r.refuse(&r.rateDestFull, "rate_dest_full")
		r.SafetyDrops.Inc()
		return false
	}
	if all > 0 {
		r.rateAll[vlan]++
	}
	if perDest > 0 {
		r.rateDest[key]++
	}
	return true
}

// sendToVLAN delivers an IP packet to (vlan, dstIP) on the inmate network,
// resolving the destination MAC via ARP on that VLAN when unknown.
func (r *Router) sendToVLAN(p *netstack.Packet, vlan uint16) {
	p.Eth.Src = GatewayMAC
	p.Eth.VLAN = vlan
	key := vlanAddr{uint32(vlan), p.IP.Dst}
	if mac, ok := r.vlanARP[key]; ok {
		p.Eth.Dst = mac
		r.tapAndSend(p)
		return
	}
	// For inmates we usually know the MAC already from NAT learning.
	if s := r.slotOf(vlan); s != nil && s.hasMAC {
		p.Eth.Dst = s.mac
		r.tapAndSend(p)
		return
	}
	if !r.vlanPending.Park(key, r.hand.marshal(p)) {
		r.gw.ARPPendingDrops.Inc()
	}
}

// arpVLAN broadcasts a request for key on its VLAN.
func (r *Router) arpVLAN(key vlanAddr) {
	sender := r.cfg.RouterIP
	if r.isServiceVLAN(uint16(key.vlan)) {
		sender = r.cfg.ServiceRouterIP
	}
	r.sendTrunk(netstack.NewARPRequest(uint16(key.vlan), GatewayMAC, sender, key.addr))
}

// flushVLANPending transmits the frames parked for a neighbour that just
// resolved. They were marshalled when parked; taps take packets, so each is
// parsed again — into a fresh Packet, because the ARP packet that triggered
// the flush is still live in the receive path's parse buffer.
func (r *Router) flushVLANPending(key vlanAddr, mac netstack.MAC) {
	w := r.vlanPending.Learned(key)
	if w == nil {
		return
	}
	for _, frame := range w.Frames {
		p, err := netstack.ParseFrame(frame)
		if err != nil {
			continue
		}
		p.Eth.Dst = mac
		r.tapAndSend(p)
	}
}

// tapAndSend runs subfarm taps and transmits on the trunk.
func (r *Router) tapAndSend(p *netstack.Packet) {
	for _, t := range r.taps {
		t(p)
	}
	r.sendTrunk(p)
}

// containmentFor selects the containment server for an inmate: sticky
// per-VLAN rendezvous hashing over the healthy cluster subset (a single
// server is a cluster of one). Rendezvous (highest-random-weight) hashing
// keeps the inmate->server mapping stable while a member is down — only
// the dead member's inmates move, and they move back when it recovers —
// unlike the old modulo selection, which kept dispatching onto the corpse.
func (r *Router) containmentFor(vlan uint16) ContainmentEndpoint {
	best := -1
	var bestScore uint64
	pick := func(skipDown bool) {
		for i := range r.cfg.ContainmentCluster {
			if skipDown && r.csDown[i] {
				continue
			}
			if s := rendezvousScore(vlan, i); best < 0 || s > bestScore {
				best, bestScore = i, s
			}
		}
	}
	pick(true)
	if best < 0 {
		// Every member down: hash over the full cluster anyway. New flows
		// still head to a containment server — where they will fail closed
		// — never to the outside.
		pick(false)
	}
	return r.cfg.ContainmentCluster[best]
}

// rendezvousScore is the highest-random-weight score of cluster member idx
// for an inmate VLAN: a splitmix64 finalizer over the (vlan, member) pair.
// Pure function of its inputs — selection must not depend on RNG state or
// arrival order, or same-seed runs would diverge.
func rendezvousScore(vlan uint16, idx int) uint64 {
	x := uint64(vlan)<<32 | uint64(idx+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// isContainmentEndpoint reports whether (ip, port) is one of the subfarm's
// containment servers.
func (r *Router) isContainmentEndpoint(ip netstack.Addr, port uint16) bool {
	for _, ep := range r.cfg.ContainmentCluster {
		if ep.IP == ip && ep.Port == port {
			return true
		}
	}
	return false
}

// establishTimeout bounds how long a flow may sit in fsEstablishing (the
// phase-2 handshake with the actual responder). The gateway's own sender
// normally gives up much sooner, but a flow whose sender was stopped (or
// never started) would otherwise occupy the table forever.
const establishTimeout = time.Minute

// spliceIdleTimeout reaps established (spliced or rewrite-proxied) flows
// with no traffic in either direction. A reaped C&C poll simply re-dials at
// its next scheduled poll; what this prevents is flows whose endpoints were
// silently destroyed (inmate revert, containment-server crash) pinning the
// table forever.
const spliceIdleTimeout = 10 * time.Minute

// register indexes f under k, its key of k's kind (Flow.keys); a leg-2 key
// replaces the one f held, as the containment server may redial leg 2 from a
// fresh port. register and unregister are the index's only writers.
//
// Two UDP flows of one socket whose verdicts name one actual responder share
// their keyActual: the newer takes it. The live sharers of a key form a list,
// newest first from the one the index names, so the key can go back to the
// next newest when its owner closes (unregister).
func (r *Router) register(f *Flow, k flowKey) {
	if k.kind == keyLeg2 {
		rare := f.needRare()
		if r.index[rare.leg2] == f {
			delete(r.index, rare.leg2)
			r.indexed[keyLeg2]--
		}
		rare.leg2 = k
	}
	switch old := r.index[k]; {
	case old == nil:
		r.indexed[k.kind]++
	case old != f && k.kind == keyActual:
		f.needRare().older = old
		old.needRare().newer = f
	}
	r.index[k] = f
}

// unregister removes a closing flow's keys, each only while it still names
// that flow. A closing flow leaves the list of its keyActual's sharers, and
// a key it owned goes to the next newest of them.
func (r *Router) unregister(f *Flow) {
	var heir *Flow
	if rare := f.rare; rare != nil {
		heir = rare.older
		if rare.older != nil {
			rare.older.rare.newer = rare.newer
		}
		if rare.newer != nil {
			rare.newer.rare.older = rare.older
		}
		rare.older, rare.newer = nil, nil
	}
	for _, k := range f.keys() {
		switch {
		case r.index[k] != f:
		case k.kind == keyActual && heir != nil:
			r.index[k] = heir
		default:
			delete(r.index, k)
			r.indexed[k.kind]--
		}
	}
}

// flowFromInitiator finds the flow whose initiator sent a packet.
func (r *Router) flowFromInitiator(k netstack.FlowKey) *Flow {
	return r.index[endpointKey(keyInit, k.Proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)]
}

// flowFromResponder finds the flow whose (actual) responder sent a packet to
// its initiator. A responder answers the address it was shown — for a flow
// redirected to an inmate, the initiator's global one — so a NAT global
// destination is translated to the inmate's own address first.
func (r *Router) flowFromResponder(k netstack.FlowKey) *Flow {
	dst := k.DstIP
	if b := r.nat.ByGlobal(dst); b != nil {
		dst = b.Internal
	}
	return r.index[endpointKey(keyActual, k.Proto, dst, k.DstPort, k.SrcIP, k.SrcPort)]
}

// flowFromCS finds the flow a containment server's leg-1 packet is for: it
// answers a TCP flow as the responder it stands in for, a UDP flow at the
// nonce port the gateway sent the shim-padded datagram from.
func (r *Router) flowFromCS(k netstack.FlowKey) *Flow {
	if k.Proto != netstack.ProtoUDP {
		return r.flowFromResponder(k)
	}
	if f := r.index[nonceKey(k.DstPort)]; f != nil && f.proto == k.Proto {
		return f
	}
	return nil
}

// eachFlow visits every flow in the table once, in map order: each owns one
// keyInit. The one walk over the flow table; anything whose effects can
// reach the journal goes through liveFlows for a stable order.
func (r *Router) eachFlow(visit func(*Flow)) {
	for k, f := range r.index {
		if k.kind == keyInit {
			visit(f)
		}
	}
}

// liveFlows returns the flows pick selects, in five-tuple order, not map
// order: a bulk teardown that resolves several flows at once must emit the
// same event sequence on every same-seed run for the journal-determinism
// guarantee.
func (r *Router) liveFlows(pick func(*Flow) bool) []*Flow {
	var picked []*Flow
	r.eachFlow(func(f *Flow) {
		if pick(f) {
			picked = append(picked, f)
		}
	})
	sort.Slice(picked, func(i, j int) bool {
		a, b := picked[i], picked[j]
		if a.initIP != b.initIP {
			return a.initIP < b.initIP
		}
		if a.initPort != b.initPort {
			return a.initPort < b.initPort
		}
		if a.respIP != b.respIP {
			return a.respIP < b.respIP
		}
		if a.respPort != b.respPort {
			return a.respPort < b.respPort
		}
		return a.proto < b.proto
	})
	return picked
}

// sweepFlows expires idle UDP flows, TCP flows stuck without a containment
// verdict (e.g. the containment server is being reconfigured), and flows
// stalled mid-establishment, so the flow table returns to empty once
// traffic stops.
func (r *Router) sweepFlows() {
	now := r.sim.Now()
	// No verdict within the bound: resolve fail-closed. Metered under
	// flows_failclosed, not sweep_reaped, so telemetry can tell a
	// containment-plane failure from routine idle cleanup.
	stalled := func(f *Flow) bool {
		return f.state == fsAwaitVerdict && now-f.lastActivity > r.awaitVerdictTimeout
	}
	stale := r.liveFlows(func(f *Flow) bool {
		idle := now - f.lastActivity
		switch {
		case stalled(f):
			return false
		case f.proto == netstack.ProtoUDP:
			return idle > udpIdleTimeout
		case f.state == fsEstablishing:
			return idle > establishTimeout
		case f.state == fsSplice, f.state == fsRewriteProxy:
			return idle > spliceIdleTimeout
		}
		return false
	})
	failclosed := r.liveFlows(stalled)
	if n := len(stale); n > 0 {
		r.SweepReaped.Add(uint64(n))
		r.sc.Emit(obs.Event{Type: obs.EvSweepReaped, N: uint64(n)})
	}
	for _, f := range stale {
		f.reset(true)
		f.close("flow expired")
	}
	for _, f := range failclosed {
		f.failClose("await-verdict deadline exceeded")
	}
	// Expired fail-close tombstones (map order is fine: deletion only).
	for k, exp := range r.synTombs {
		if now > exp {
			delete(r.synTombs, k)
		}
	}
	r.FlowsActive.Set(int64(r.ActiveFlows()))
}

// tombstone remembers a fail-closed flow's SYN for synTombstoneTTL. At
// maxSynTombs a held key may still be renewed; a new one is not remembered,
// and counted in subfarm.<name>.syn_tombs_full.
func (r *Router) tombstone(k synTombKey) {
	if _, known := r.synTombs[k]; !known && len(r.synTombs) >= maxSynTombs {
		r.refuse(&r.synTombsFull, "syn_tombs_full")
		return
	}
	r.synTombs[k] = r.sim.Now() + synTombstoneTTL
}

// shedLRU evicts the least-recently-active flow to make room for a new one
// when the table is at its bound. The victim's endpoints receive RSTs so
// inmates see clean failure instead of a silent blackhole. Ties break on the
// five-tuple, which no two live flows share, keeping eviction order
// deterministic for a given seed despite map iteration. Reports whether a
// victim was found.
func (r *Router) shedLRU() bool {
	var victim *Flow
	better := func(f *Flow) bool {
		v := victim
		switch {
		case v == nil:
			return true
		case f.lastActivity != v.lastActivity:
			return f.lastActivity < v.lastActivity
		case f.initIP != v.initIP:
			return f.initIP < v.initIP
		case f.initPort != v.initPort:
			return f.initPort < v.initPort
		case f.proto != v.proto:
			return f.proto < v.proto
		case f.respIP != v.respIP:
			return f.respIP < v.respIP
		}
		return f.respPort < v.respPort
	}
	r.eachFlow(func(f *Flow) {
		if better(f) {
			victim = f
		}
	})
	if victim == nil {
		return false
	}
	victim.reset(true)
	r.FlowsShed.Inc()
	e := victim.event(obs.EvFlowShed)
	e.Detail = "flow table full"
	r.sc.Emit(e)
	victim.close("shed under pressure")
	return true
}

// allocNonce picks a nonce port no live flow owns.
func (r *Router) allocNonce() uint16 {
	for i := 0; i < 20000; i++ {
		port := r.nextNonce
		r.nextNonce++
		if r.nextNonce < 40000 {
			r.nextNonce = 40000
		}
		if r.index[nonceKey(port)] == nil {
			return port
		}
	}
	panic(fmt.Sprintf("gateway %s: nonce port space exhausted", r.cfg.Name))
}
