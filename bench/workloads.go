package main

// The five farm workloads. Each builder assembles a fresh farm from the
// seed, installs the benchmark's own load generators as boot hooks and sim
// timers, and returns an instance the runner can boot, time, drain and
// check. Nothing here reaches into the product packages' internals: load is
// offered through host.Dial/Write, observed through public counters and
// Host.AddRxHook.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gq/internal/containment"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
	"gq/internal/sim"
	"gq/internal/smtpx"
)

// instance is one built farm plus everything the runner needs to drive it.
type instance struct {
	farm *farm.Farm
	// extHosts are the benchmark's own hosts on the Internet segment; the
	// runner uses them to find every simulation domain of a sharded farm.
	extHosts []*host.Host

	boot   time.Duration // virtual time from build to steady state
	slice  time.Duration // virtual length of one timed slice
	slices int           // timed slices (an upper bound when done is set)
	done   func() bool   // non-nil: stop after the slice that makes it true
	// finishedAt, set with done, is the virtual time the work completed;
	// the slice that notices runs on past it.
	finishedAt func() time.Duration
	drain      time.Duration // virtual time run after stop, before check

	stop      func()           // silences the load generators
	delivered func() uint64    // payload bytes the receiving applications have so far
	check     func(c *checker) // output checks, after drain
	canary    *canary          // host that must see nothing (nil: workload allows egress)
	meters    []*streamMeter   // rx meters on the farm's own sinks
}

// checker accumulates the output checks of one rep. attempted/failed count
// operations (flows dialled, payload KiB expected, SMTP sessions opened); a
// broken invariant counts as one failed operation and is described in notes.
type checker struct {
	attempted, failed uint64
	notes             []string
}

func (c *checker) ops(attempted, failed uint64, what string) {
	c.attempted += attempted
	c.failed += failed
	if failed > 0 {
		c.notes = append(c.notes, fmt.Sprintf("%d of %d %s failed", failed, attempted, what))
	}
}

func (c *checker) require(ok bool, format string, args ...any) {
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// canary is an external host at an address the inmates dial under a policy
// that must never let them reach it. Anything it sees escaped containment.
type canary struct {
	addr         netstack.Addr
	conns, bytes uint64
}

func addCanary(f *farm.Farm, inst *instance, addr netstack.Addr) {
	cn := &canary{addr: addr}
	h := f.AddExternalHost("canary", addr)
	h.ListenAny(func(c *host.Conn) {
		cn.conns++
		c.OnData = func(d []byte) { cn.bytes += uint64(len(d)) }
		c.OnPeerClose = func() { c.Close() }
	})
	h.ListenUDPAny(func(_ uint16, _ netstack.Addr, _ uint16, d []byte) { cn.bytes += uint64(len(d)) })
	inst.extHosts = append(inst.extHosts, h)
	inst.canary = cn
}

// streamMeter counts the in-order TCP payload a host receives, per stream,
// from an rx hook: the bytes its application is handed, without touching
// the application. It also counts every packet seen (sink.rx_pkts).
type streamMeter struct {
	next  map[meterKey]uint32
	bytes uint64
	pkts  uint64
}

type meterKey struct {
	src          netstack.Addr
	sport, dport uint16
}

// meterHost attaches a streamMeter to one of the instance's sink hosts.
func (inst *instance) meterHost(h *host.Host) *streamMeter {
	m := &streamMeter{next: make(map[meterKey]uint32)}
	inst.meters = append(inst.meters, m)
	h.AddRxHook(func(p *netstack.Packet) {
		m.pkts++
		if p.TCP == nil {
			return
		}
		k := meterKey{p.IP.Src, p.TCP.SrcPort, p.TCP.DstPort}
		if p.TCP.Flags&netstack.FlagSYN != 0 {
			m.next[k] = p.TCP.Seq + 1
			return
		}
		if n := uint32(len(p.Payload)); n > 0 && m.next[k] == p.TCP.Seq {
			m.bytes += uint64(n)
			m.next[k] += n
		}
	})
	return m
}

// scaled shrinks a count for the smoke test, never below one.
func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 1 {
		return m
	}
	return 1
}

// subfarmConfig is the addressing every benchmark subfarm shares: subfarm i
// gets 40 VLANs from 100+40i, service VLAN 10+i and 192.0.(2+i).0/24.
func subfarmConfig(name string, i, inmates int) farm.SubfarmConfig {
	lo := uint16(100 + i*40)
	return farm.SubfarmConfig{
		Name:   name,
		VLANLo: lo, VLANHi: lo + uint16(inmates) + 2,
		ServiceVLAN: uint16(10 + i),
		GlobalPool:  netstack.Prefix{Base: netstack.AddrFrom4(192, 0, byte(2+i), 0), Bits: 24},
	}
}

// --- bulk_dense / bulk_dense_sharded ---

var denseTarget = netstack.MustParseAddr("203.0.113.80")

// denseSubfarm is one subfarm's load state. In the sharded workload each
// subfarm's hooks run on its own domain's goroutine, so nothing here is
// shared between subfarms.
type denseSubfarm struct {
	sf      *farm.Subfarm
	meter   *streamMeter
	conns   []*host.Conn
	tickers []*sim.Ticker
}

// buildDense is 6 subfarms x 4 inmates, each inmate writing 1 KiB every 2
// virtual ms to an external address; DefaultDeny reflects every stream into
// the subfarm's catch-all sink.
func buildDense(seed int64, scale float64, sharded bool) (*instance, error) {
	const subfarms, inmates = 6, 4
	var f *farm.Farm
	if sharded {
		f = farm.NewSharded(seed, 0)
	} else {
		f = farm.New(seed)
	}
	inst := &instance{
		farm: f, boot: 3 * time.Second,
		slice: time.Second / 4, slices: scaled(20, scale), drain: time.Second / 2,
	}
	addCanary(f, inst, denseTarget)
	var subs []*denseSubfarm
	for s := 0; s < subfarms; s++ {
		cfg := subfarmConfig("dense"+string(rune('a'+s)), s, inmates)
		cfg.FallbackPolicy = "DefaultDeny"
		sf, err := f.AddSubfarm(cfg)
		if err != nil {
			return nil, err
		}
		d := &denseSubfarm{sf: sf, meter: inst.meterHost(sf.SvcHosts["catchall"])}
		chunk := make([]byte, 1024)
		sf.OnBootHook = func(fi *farm.FarmInmate) {
			c := fi.Host.Dial(denseTarget, 80)
			d.conns = append(d.conns, c)
			d.tickers = append(d.tickers, fi.Host.Sim().Every(2*time.Millisecond, func() { c.Write(chunk) }))
		}
		for j := 0; j < inmates; j++ {
			if _, err := sf.AddInmate("bulk"); err != nil {
				return nil, err
			}
		}
		subs = append(subs, d)
	}
	inst.stop = func() {
		for _, d := range subs {
			for _, t := range d.tickers {
				t.Stop()
			}
		}
	}
	inst.delivered = func() uint64 {
		var n uint64
		for _, d := range subs {
			n += d.meter.bytes
		}
		return n
	}
	inst.check = func(c *checker) {
		for _, d := range subs {
			var written uint64
			for _, conn := range d.conns {
				written += conn.BytesOut
				c.require(conn.State() == host.StateEstablished, "%s: stream in state %v", d.sf.Name, conn.State())
			}
			c.ops(kib(written), kib(written-min(written, d.meter.bytes)), d.sf.Name+" payload KiB")
			c.require(len(d.conns) == inmates, "%s: %d of %d inmates dialled", d.sf.Name, len(d.conns), inmates)
			c.require(d.sf.CatchAll.TCPConns == inmates, "%s: catch-all saw %d conns, want %d", d.sf.Name, d.sf.CatchAll.TCPConns, inmates)
			c.require(d.sf.Router.VerdictsApplied.Value() == inmates, "%s: %d verdicts, want %d", d.sf.Name, d.sf.Router.VerdictsApplied.Value(), inmates)
		}
	}
	return inst, nil
}

func kib(b uint64) uint64 { return (b + 1023) / 1024 }

// --- bulk_proxy ---

var proxyTarget = netstack.MustParseAddr("203.0.113.90")

// passThrough relays a REWRITE-contained flow unmodified: the cost of
// content control (four TCP endpoints, every byte through the containment
// server) without a rewrite to pay for.
type passThrough struct{}

func (passThrough) OnClientData(s *containment.Session, d []byte) { s.WriteServer(d) }
func (passThrough) OnServerData(s *containment.Session, d []byte) { s.WriteClient(d) }
func (passThrough) OnClientClose(s *containment.Session)          { s.CloseServer() }
func (passThrough) OnServerClose(s *containment.Session)          { s.CloseClient() }

type passThroughDecider struct{}

func (passThroughDecider) Name() string { return "BenchPassThrough" }
func (passThroughDecider) Decide(*shim.Request) containment.Decision {
	return containment.Decision{Verdict: shim.Rewrite, Annotation: "bench pass-through", Handler: passThrough{}}
}

// pusher is a closed-loop bulk sender: a sim timer tops the connection up
// with the next write whenever fewer than window bytes are outstanding at
// the receiving application. host.Conn has no writable callback, so the
// generator reads the receiver's count directly — legal because both ends
// live in one simulation domain.
type pusher struct {
	conn     *host.Conn
	writes   [][]byte      // remaining writes, in order
	total    uint64        // bytes writes held at the start
	received uint64        // bytes the receiving application has been handed
	doneAt   time.Duration // virtual time the last byte arrived
	window   uint64
	ticker   *sim.Ticker
}

func (p *pusher) tick() {
	for len(p.writes) > 0 && p.conn.BytesOut-p.received < p.window {
		p.conn.Write(p.writes[0])
		p.writes = p.writes[1:]
	}
	if len(p.writes) == 0 {
		p.conn.Close()
		p.ticker.Stop()
	}
}

// done reports that everything was written and has arrived.
func (p *pusher) done() bool { return p.received == p.total }

// sinkInto wires the receiving end: count the pusher's bytes as the
// application gets them, note when the last one lands, close when the
// sender does.
func (p *pusher) sinkInto(c *host.Conn, now func() time.Duration) {
	c.OnData = func(d []byte) {
		if p.received += uint64(len(d)); p.received == p.total {
			p.doneAt = now()
		}
	}
	c.OnPeerClose = func() { c.Close() }
}

// splitWrites cuts total bytes into writes whose sizes are drawn uniformly
// from [mean/2, 3*mean/2), all slices of one shared zero buffer.
func splitWrites(rng *rand.Rand, total, mean int) [][]byte {
	buf := make([]byte, mean*3/2)
	var out [][]byte
	for total > 0 {
		n := mean/2 + rng.Intn(mean)
		if n > total {
			n = total
		}
		out = append(out, buf[:n])
		total -= n
	}
	return out
}

// buildProxy is 1 subfarm x 4 inmates each pushing 8 MiB in ~64 KiB writes
// (sizes drawn from the seed, at most 4 outstanding) to an external host
// through a pass-through REWRITE proxy, run to completion. The pushers
// start at virtual 5 s and boot ends 5 virtual ms later, so the timed region
// opens on streams already in flight. Inmate j dials port 80+j so the
// receiver can tell the streams apart.
func buildProxy(seed int64, scale float64) (*instance, error) {
	const inmates = 4
	const startAt = 5 * time.Second
	perInmate := scaled(8<<20, scale)
	f := farm.New(seed)
	inst := &instance{
		farm: f, boot: startAt + time.Duration(scale*float64(5*time.Millisecond)),
		slice: 10 * time.Millisecond, slices: 2000, drain: time.Second,
	}
	target := f.AddExternalHost("target", proxyTarget)
	inst.extHosts = append(inst.extHosts, target)
	rng := rand.New(rand.NewSource(seed))
	pushers := make([]*pusher, inmates)
	var accepted uint64
	for j := range pushers {
		p := &pusher{writes: splitWrites(rng, perInmate, 64<<10), total: uint64(perInmate), window: 4 * 64 << 10}
		pushers[j] = p
		if err := target.Listen(uint16(80+j), func(c *host.Conn) { accepted++; p.sinkInto(c, target.Sim().Now) }); err != nil {
			return nil, err
		}
	}
	cfg := subfarmConfig("proxy", 0, inmates)
	cfg.FallbackPolicy = "BenchPassThrough"
	sf, err := f.AddSubfarm(cfg)
	if err != nil {
		return nil, err
	}
	booted := 0
	sf.OnBootHook = func(fi *farm.FarmInmate) {
		p := pushers[booted]
		p.conn = fi.Host.Dial(proxyTarget, uint16(80+booted))
		booted++
		s := fi.Host.Sim()
		s.ScheduleAt(startAt, func() { p.ticker = s.Every(250*time.Microsecond, p.tick) })
	}
	for j := 0; j < inmates; j++ {
		if _, err := sf.AddInmate("push"); err != nil {
			return nil, err
		}
	}
	inst.done = func() bool {
		for _, p := range pushers {
			if !p.done() {
				return false
			}
		}
		return true
	}
	inst.finishedAt = func() time.Duration {
		var at time.Duration
		for _, p := range pushers {
			at = max(at, p.doneAt)
		}
		return at
	}
	inst.delivered = func() uint64 {
		var n uint64
		for _, p := range pushers {
			n += p.received
		}
		return n
	}
	inst.check = func(c *checker) {
		want := uint64(perInmate)
		for j, p := range pushers {
			c.require(p.conn != nil && p.conn.BytesOut == want, "inmate %d wrote the wrong amount", j)
			c.ops(kib(want), kib(want-min(want, p.received)), fmt.Sprintf("inmate %d payload KiB", j))
		}
		c.require(accepted == inmates, "target accepted %d conns, want %d", accepted, inmates)
		c.require(sf.CS.FlowsSeen == inmates, "containment server saw %d flows, want %d", sf.CS.FlowsSeen, inmates)
	}
	return inst, nil
}

// --- flow_churn ---

var (
	churnTarget = netstack.MustParseAddr("203.0.113.80")
	churnAlt    = netstack.MustParseAddr("203.0.113.81")
)

// The six Fig. 2 modes, keyed on destination port as experiments.fig2Decider
// does.
const (
	portForward = 8001 + iota
	portLimit
	portDrop
	portRedirect
	portReflect
	portRewrite
)

var churnPorts = [6]uint16{portForward, portLimit, portDrop, portRedirect, portReflect, portRewrite}

type churnDecider struct{ env *policy.Env }

func (churnDecider) Name() string { return "BenchChurn" }

func (d churnDecider) Decide(req *shim.Request) containment.Decision {
	switch req.RespPort {
	case portForward:
		return containment.Decision{Verdict: shim.Forward, Annotation: "forward"}
	case portLimit:
		return containment.Decision{Verdict: shim.Limit, Annotation: "rate-limit"}
	case portRedirect:
		return containment.Decision{Verdict: shim.Redirect, RespIP: churnAlt, RespPort: portRedirect, Annotation: "redirect"}
	case portReflect:
		return containment.Decision{
			Verdict: shim.Reflect, RespIP: d.env.Service(policy.SvcCatchAllSink).Addr,
			RespPort: portReflect, Annotation: "reflect",
		}
	case portRewrite:
		return containment.Decision{Verdict: shim.Rewrite, Annotation: "rewrite", Handler: upcase{}}
	default:
		return containment.Decision{Verdict: shim.Drop, Annotation: "drop"}
	}
}

// upcase relays requests untouched and upper-cases responses, so a REWRITE
// flow's reply proves the containment server was in the path.
type upcase struct{ passThrough }

func (upcase) OnServerData(s *containment.Session, d []byte) {
	s.WriteClient([]byte(strings.ToUpper(string(d))))
}

func init() {
	policy.Register("BenchPassThrough", func(*policy.Env) containment.Decider { return passThroughDecider{} })
	policy.Register("BenchChurn", func(env *policy.Env) containment.Decider { return churnDecider{env} })
}

// churnRequest is the 100-byte lower-case request every churn flow sends.
var churnRequest = []byte(strings.Repeat("gq-churn-", 12)[:100])

// churner opens one flow per tick from one inmate, cycling the six modes in
// a seed-shuffled order, and scores each flow when it completes.
type churner struct {
	h      *host.Host
	rng    *rand.Rand
	order  [6]uint16
	n      int
	ticker *sim.Ticker

	dialled, ok [6]uint64 // indexed like churnPorts
}

func (ch *churner) open() {
	if ch.n%6 == 0 {
		ch.order = churnPorts
		ch.rng.Shuffle(6, func(i, j int) { ch.order[i], ch.order[j] = ch.order[j], ch.order[i] })
	}
	port := ch.order[ch.n%6]
	ch.n++
	mode := int(port - portForward)
	ch.dialled[mode]++
	c := ch.h.Dial(churnTarget, port)
	want := string(churnRequest)
	if port == portRewrite {
		want = strings.ToUpper(want)
	}
	var reply []byte
	c.OnConnect = func() {
		c.Write(churnRequest)
		if port == portReflect {
			c.Close() // the catch-all never answers; it closes when we do
		}
	}
	c.OnData = func(d []byte) {
		reply = append(reply, d...)
		if len(reply) >= len(want) {
			// A reply on a dropped or reflected flow is a failure.
			if string(reply) == want && port != portDrop && port != portReflect {
				ch.ok[mode]++
			}
			c.Close()
		}
	}
	switch port {
	case portDrop: // the verdict resets the flow before any reply
		c.OnClose = func(err error) {
			if err != nil && len(reply) == 0 {
				ch.ok[mode]++
			}
		}
	case portReflect: // the sink swallows the request and closes after us
		c.OnPeerClose = func() {
			if len(reply) == 0 {
				ch.ok[mode]++
			}
		}
	}
}

// buildChurn is 1 subfarm x 4 inmates, each opening a flow every 20 virtual
// ms (200 flows per virtual second in all): a 100-byte request, the echo,
// close. The generators start at virtual 20 s, boot ends 2 s (400 flows)
// later, and the timed window is the next 40 virtual seconds — 8000 flows,
// long enough to span the gateway's 30 s and 60 s sweeps and the 10 s
// post-close linger, so the flow table reaches its steady ~2000 entries and
// teardown is measured with setup. 200 flows/s keeps that well under
// gateway.DefaultMaxFlows, so nothing is shed.
func buildChurn(seed int64, scale float64) (*instance, error) {
	const inmates = 4
	const interval = 20 * time.Millisecond
	const startAt = 20 * time.Second
	f := farm.New(seed)
	inst := &instance{
		farm: f, boot: startAt + 2*time.Second,
		slice: time.Second, slices: scaled(40, scale), drain: 3 * time.Second,
	}
	// Echo servers: the dialled target on every mode port, the redirect
	// alternate on its one. received[port] counts request bytes per host.
	targetGot, altGot := map[uint16]uint64{}, map[uint16]uint64{}
	echo := func(name string, addr netstack.Addr, ports []uint16, got map[uint16]uint64) error {
		h := f.AddExternalHost(name, addr)
		inst.extHosts = append(inst.extHosts, h)
		for _, port := range ports {
			port := port
			if err := h.Listen(port, func(c *host.Conn) {
				c.OnData = func(d []byte) {
					got[port] += uint64(len(d))
					c.Write(d)
				}
				c.OnPeerClose = func() { c.Close() }
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := echo("target", churnTarget, churnPorts[:], targetGot); err != nil {
		return nil, err
	}
	if err := echo("alt", churnAlt, []uint16{portRedirect}, altGot); err != nil {
		return nil, err
	}
	cfg := subfarmConfig("churn", 0, inmates)
	cfg.FallbackPolicy = "BenchChurn"
	sf, err := f.AddSubfarm(cfg)
	if err != nil {
		return nil, err
	}
	sinkMeter := inst.meterHost(sf.SvcHosts["catchall"])
	var churners []*churner
	sf.OnBootHook = func(fi *farm.FarmInmate) {
		idx := len(churners)
		ch := &churner{h: fi.Host, rng: rand.New(rand.NewSource(seed<<8 + int64(idx)))}
		churners = append(churners, ch)
		s := fi.Host.Sim()
		// Stagger the inmates across the interval so flows interleave.
		s.ScheduleAt(startAt+time.Duration(idx)*interval/inmates, func() {
			ch.ticker = s.Every(interval, ch.open)
		})
	}
	for j := 0; j < inmates; j++ {
		if _, err := sf.AddInmate("churn"); err != nil {
			return nil, err
		}
	}
	sumGot := func(m map[uint16]uint64, ports ...uint16) uint64 {
		var n uint64
		for _, p := range ports {
			n += m[p]
		}
		return n
	}
	inst.stop = func() {
		for _, ch := range churners {
			if ch.ticker != nil {
				ch.ticker.Stop()
			}
		}
	}
	inst.delivered = func() uint64 {
		// Request bytes at whichever application received them; echoes are
		// the same bytes coming back and are not counted twice.
		return sumGot(targetGot, churnPorts[:]...) + altGot[portRedirect] + sinkMeter.bytes
	}
	inst.check = func(c *checker) {
		var dialled [6]uint64
		for _, ch := range churners {
			for m := range churnPorts {
				dialled[m] += ch.dialled[m]
				c.ops(ch.dialled[m], ch.dialled[m]-ch.ok[m], fmt.Sprintf("flows to port %d", churnPorts[m]))
			}
		}
		reqLen := uint64(len(churnRequest))
		for _, m := range []int{0, 1, 5} { // FORWARD, LIMIT, REWRITE reach the dialled target
			port := churnPorts[m]
			c.require(targetGot[port] == dialled[m]*reqLen, "target port %d got %d bytes, want %d", port, targetGot[port], dialled[m]*reqLen)
		}
		c.require(altGot[portRedirect] == dialled[3]*reqLen, "redirect alternate got %d bytes, want %d", altGot[portRedirect], dialled[3]*reqLen)
		c.require(sumGot(targetGot, portDrop, portRedirect, portReflect) == 0, "dialled target saw dropped/redirected/reflected flows")
		c.require(uint64(sf.CatchAll.ByPort[portReflect]) == dialled[4], "catch-all logged %d reflected flows, want %d", sf.CatchAll.ByPort[portReflect], dialled[4])
		c.require(sinkMeter.bytes == dialled[4]*reqLen, "catch-all got %d bytes, want %d", sinkMeter.bytes, dialled[4]*reqLen)
	}
	return inst, nil
}

// --- spam_sparse ---

var (
	spamCC     = netstack.MustParseAddr("50.8.207.91")
	spamVictim = netstack.MustParseAddr("203.0.113.25")
)

const spamBatch = 100

// buildSpam is the shape of experiments.RunScalabilityGateway at 3 subfarms
// x 4 Rustock inmates: C&C over a forwarded 443 and a rewrite-filtered 80
// to an external malware.CCServer, every SMTP session reflected to the
// subfarm's sink, 100 messages per session, 1 ms access latency. Boot ends
// at virtual 12 s: every inmate is leased, infected and has polled its C&C,
// and the first spam session (15 s +-30% after infection) is still ahead, so
// how much work boot holds does not depend on the seed's jitter.
func buildSpam(seed int64, scale float64) (*instance, error) {
	const subfarms, inmates = 3, 4
	f := farm.New(seed)
	inst := &instance{
		farm: f, boot: 12 * time.Second,
		// Never fewer than 3 slices: the first sessions begin up to 10
		// virtual seconds after boot ends.
		slice: 5 * time.Second, slices: max(3, scaled(24, scale)), drain: 30 * time.Second,
	}
	cc := f.AddExternalHost("cc", spamCC)
	inst.extHosts = append(inst.extHosts, cc)
	if _, err := malware.NewCCServer(cc, malware.CCConfig{Template: "x", Targets: []netstack.Addr{spamVictim}}); err != nil {
		return nil, err
	}
	// The victim MX the C&C hands out: SMTP is reflected, so it must stay
	// untouched.
	addCanary(f, inst, spamVictim)
	var meters []*streamMeter
	for i := 0; i < subfarms; i++ {
		cfg := subfarmConfig(fmt.Sprintf("spam%d", i), i, inmates)
		cfg.PolicyConfig = fmt.Sprintf("[VLAN %d-%d]\nDecider = Rustock\nInfection = *.exe\n", cfg.VLANLo, cfg.VLANHi)
		cfg.SampleLibrary = []*policy.Sample{policy.NewSample("bot.exe", "rustock", []byte("MZ"))}
		cfg.RepeatBatches = true
		cfg.CCHosts = map[string]policy.AddrPort{"Rustock": {Addr: spamCC, Port: 443}}
		cfg.SpamBatch = spamBatch
		cfg.AccessLatency = time.Millisecond
		cfg.SinkStrictness = smtpx.Lenient
		sf, err := f.AddSubfarm(cfg)
		if err != nil {
			return nil, err
		}
		meters = append(meters, inst.meterHost(sf.SvcHosts["smtpsink"]), inst.meterHost(sf.SvcHosts["bannersink"]))
		for j := 0; j < inmates; j++ {
			if _, err := sf.AddInmate(fmt.Sprintf("bot%d-%d", i, j)); err != nil {
				return nil, err
			}
		}
	}
	inst.stop = func() {
		for _, sf := range f.Subfarms {
			for _, fi := range sf.Inmates {
				if fi.Specimen != nil {
					fi.Specimen.Stop()
				}
			}
		}
	}
	inst.delivered = func() uint64 {
		var n uint64
		for _, m := range meters {
			n += m.bytes
		}
		return n
	}
	inst.check = func(c *checker) {
		for _, sf := range f.Subfarms {
			infected := 0
			for _, fi := range sf.Inmates {
				if fi.Family == "rustock" {
					infected++
				}
			}
			c.require(infected == inmates, "%s: %d of %d inmates infected", sf.Name, infected, inmates)
			sessions := sf.SMTPSink.Sessions + sf.BannerSink.Sessions
			transfers := sf.SMTPSink.DataTransfers + sf.BannerSink.DataTransfers
			// Every drained session delivered its whole batch.
			short := sessions - min(sessions, transfers/spamBatch)
			c.ops(sessions, short, sf.Name+" SMTP sessions")
			c.require(sessions > 0, "%s: no SMTP session reached the sink", sf.Name)
			c.require(sf.SMTPSink.DroppedConns+sf.BannerSink.DroppedConns == 0, "%s: sink dropped connections", sf.Name)
		}
	}
	return inst, nil
}

// builders maps the fixed workload names to their constructors.
var builders = map[string]func(seed int64, scale float64) (*instance, error){
	"bulk_dense":         func(seed int64, sc float64) (*instance, error) { return buildDense(seed, sc, false) },
	"bulk_dense_sharded": func(seed int64, sc float64) (*instance, error) { return buildDense(seed, sc, true) },
	"bulk_proxy":         buildProxy,
	"flow_churn":         buildChurn,
	"spam_sparse":        buildSpam,
}
