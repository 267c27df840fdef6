package main

// The rung ladder: isolated micro-runs, one per layer, each timing only that
// layer's public API. A rung reports the median of rungReps repetitions and
// asserts that what it timed also produced the right answer.

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/nat"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/shim"
	"gq/internal/sim"
	"gq/internal/smtpx"
)

const rungReps = 5

// sampler collects repetitions of one timed body.
type sampler struct{ ns, allocs []float64 }

// run times fn, which performs ops operations, and records ns and heap
// allocations per operation.
func (s *sampler) run(ops int, fn func()) {
	a0 := heapAllocs()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.ns = append(s.ns, float64(d.Nanoseconds())/float64(ops))
	s.allocs = append(s.allocs, float64(heapAllocs()-a0)/float64(ops))
}

func (s *sampler) medians() (ns, allocs float64) {
	sort.Float64s(s.ns)
	sort.Float64s(s.allocs)
	return median(s.ns), median(s.allocs)
}

// repeat is one rung whose every repetition builds fresh state: body sets
// up, then times its measured part with sm.run.
func (l *ladder) repeat(name string, body func(sm *sampler) error) (ns, allocs float64, err error) {
	defer l.tr.end(l.tr.begin(name, l.layer))
	var sm sampler
	for r := 0; r < rungReps; r++ {
		if err := body(&sm); err != nil {
			return 0, 0, err
		}
	}
	ns, allocs = sm.medians()
	return ns, allocs, nil
}

// measureOps is one rung on shared state: the body repeated rungReps times
// under a span named after the metric it feeds.
func (l *ladder) measureOps(name string, ops int, fn func()) (ns, allocs float64) {
	defer l.tr.end(l.tr.begin(name, l.layer))
	var s sampler
	for r := 0; r < rungReps; r++ {
		s.run(ops, fn)
	}
	return s.medians()
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocObjs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// mbPerS converts ns per byte into MB/s.
func mbPerS(nsPerByte float64) float64 { return 1e3 / nsPerByte }

// ladder accumulates rung values.
type ladder struct {
	scale  float64 // 1, or less for the smoke test
	values map[string]float64
	tr     *tracer
	layer  int // span of the layer whose rungs are running
}

// n scales an operation count for the smoke test, keeping it even and
// positive.
func (l *ladder) n(ops int) int { return 2 * scaled(ops/2, l.scale) }

// runRungs runs the whole ladder. It fails if any rung's correctness
// assertion does.
func runRungs(tr *tracer, scale float64) (map[string]float64, error) {
	tr.workload, tr.rep = "rungs", 0
	l := &ladder{scale: scale, values: map[string]float64{}, tr: tr}
	for _, r := range []struct {
		name string
		fn   func(*ladder) error
	}{
		{"sim", rungSim}, {"netstack", rungNetstack}, {"netsim", rungNetsim},
		{"host", rungHost}, {"gateway", rungGateway}, {"nat", rungNAT},
		{"shim", rungShim}, {"policy", rungPolicy}, {"smtpx", rungSMTP}, {"obs", rungObs},
	} {
		l.layer = tr.begin("rung."+r.name, 0)
		err := r.fn(l)
		tr.end(l.layer)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", r.name, err)
		}
	}
	return l.values, nil
}

// sinkhole keeps results the compiler might otherwise discard.
var sinkhole uint64

// --- sim ---

func rungSim(l *ladder) error {
	nop := func() {}
	// The classic hold model: with `pending` events queued, schedule one at
	// a random future offset and fire the earliest.
	for _, c := range []struct {
		key     string
		pending int
	}{{"sim.rung.sched_fire_1e3_ns", 1e3}, {"sim.rung.sched_fire_1e5_ns", 1e5}} {
		s := sim.New(1)
		rng := rand.New(rand.NewSource(1))
		delay := func() time.Duration { return time.Duration(rng.Int63n(int64(time.Second))) }
		for i := 0; i < c.pending; i++ {
			s.Schedule(delay(), nop)
		}
		ops := l.n(100000)
		ns, allocs := l.measureOps(c.key, ops, func() {
			for i := 0; i < ops; i++ {
				s.Schedule(delay(), nop)
				s.Step()
			}
		})
		if s.Fired != uint64(ops*rungReps) || s.Pending() != c.pending {
			return fmt.Errorf("hold model fired %d with %d pending, want %d and %d", s.Fired, s.Pending(), ops*rungReps, c.pending)
		}
		l.values[c.key] = ns
		if c.pending == 1e3 {
			l.values["sim.rung.sched_allocs"] = allocs
		}
	}
	// Schedule, cancel, and let the run loop discard the dead event.
	s := sim.New(1)
	ops := l.n(100000)
	ns, _ := l.measureOps("sim.rung.cancel_ns", ops, func() {
		for i := 0; i < ops; i++ {
			s.Schedule(time.Duration(i), nop).Cancel()
		}
		s.Run()
	})
	if s.Fired != 0 || s.Pending() != 0 {
		return fmt.Errorf("cancelled events fired (%d) or stayed queued (%d)", s.Fired, s.Pending())
	}
	l.values["sim.rung.cancel_ns"] = ns
	return nil
}

// --- netstack ---

var (
	rungMACa = netstack.MAC{0x02, 0, 0, 0, 0, 0x0a}
	rungMACb = netstack.MAC{0x02, 0, 0, 0, 0, 0x0b}
	rungIPa  = netstack.MustParseAddr("10.0.0.23")
	rungIPb  = netstack.MustParseAddr("203.0.113.80")
)

// tcpPacket is an a->b TCP segment whose frame is frameLen bytes long.
func tcpPacket(frameLen int, vlan uint16) *netstack.Packet {
	eth := netstack.Ethernet{Dst: rungMACb, Src: rungMACa, VLAN: vlan, EtherType: netstack.EtherTypeIPv4}
	payload := make([]byte, frameLen-eth.HeaderLen()-netstack.IPv4HeaderLen-netstack.TCPHeaderLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &netstack.Packet{
		Eth:     eth,
		IP:      &netstack.IPv4{TTL: netstack.DefaultTTL, Protocol: netstack.ProtoTCP, Src: rungIPa, Dst: rungIPb},
		TCP:     &netstack.TCP{SrcPort: 40000, DstPort: 80, Seq: 1000, Ack: 2000, Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535},
		Payload: payload,
	}
}

func rungNetstack(l *ladder) error {
	buf := make([]byte, 1460)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	ops := l.n(20000)
	ns, _ := l.measureOps("netstack.rung.checksum_1460_ns", ops, func() {
		for i := 0; i < ops; i++ {
			sinkhole += uint64(netstack.Checksum(buf, 0))
		}
	})
	l.values["netstack.rung.checksum_1460_ns"] = ns

	for _, c := range []struct {
		key  string
		size int
	}{{"netstack.rung.parse_64_ns", 64}, {"netstack.rung.parse_1514_ns", 1514}} {
		frame := tcpPacket(c.size, netstack.NoVLAN).Marshal()
		if len(frame) != c.size {
			return fmt.Errorf("built a %d-byte frame, want %d", len(frame), c.size)
		}
		var last *netstack.Packet
		var perr error
		ns, allocs := l.measureOps(c.key, ops, func() {
			for i := 0; i < ops; i++ {
				if last, perr = netstack.ParseFrame(frame); perr != nil {
					return
				}
			}
		})
		if perr != nil || last.TCP == nil || last.TCP.Seq != 1000 || len(last.Payload) != c.size-54 {
			return fmt.Errorf("parse of the %d-byte frame went wrong: %v", c.size, perr)
		}
		l.values[c.key] = ns
		if c.size == 1514 {
			l.values["netstack.rung.parse_allocs"] = allocs
		}
	}

	// Marshal from structs: the slow path every host-originated segment takes.
	p := tcpPacket(1514, netstack.NoVLAN)
	var wire []byte
	ns, allocs := l.measureOps("netstack.rung.marshal_1514_ns", ops, func() {
		for i := 0; i < ops; i++ {
			wire = p.Marshal()
		}
	})
	if q, err := netstack.ParseFrame(wire); err != nil || q.IP.Dst != rungIPb || len(q.Payload) != 1460 {
		return fmt.Errorf("marshalled frame does not reparse: %v", err)
	}
	l.values["netstack.rung.marshal_1514_ns"] = ns
	l.values["netstack.rung.marshal_allocs"] = allocs

	// The in-place mutators the gateway applies per forwarded frame. The
	// frame must still verify afterwards, checksums included.
	frame := tcpPacket(1518, 100).Marshal()
	nats := [2]netstack.Addr{netstack.MustParseAddr("192.0.2.16"), netstack.MustParseAddr("192.0.2.17")}
	var seqBump uint32
	okAll := true
	ns, allocs = l.measureOps("netstack.rung.mutate_ns", ops, func() {
		for i := 0; i < ops; i++ {
			ok := netstack.PatchIPSrc(frame, nats[i&1])
			ok = netstack.PatchIPDst(frame, nats[1-i&1]) && ok
			ok = netstack.BumpTCPSeq(frame, 12) && ok
			ok = netstack.RetagVLAN(frame, uint16(100+i&1)) && ok
			okAll = okAll && ok
			seqBump += 12
		}
	})
	q, err := netstack.ParseFrame(frame)
	if err != nil || !okAll {
		return fmt.Errorf("mutated frame does not verify (mutators ok=%v): %v", okAll, err)
	}
	if q.TCP.Seq != 1000+seqBump || q.IP.Src != nats[1] || q.IP.Dst != nats[0] || q.Eth.VLAN != 101 {
		return fmt.Errorf("mutated frame reparsed to seq %d src %v dst %v vlan %d", q.TCP.Seq, q.IP.Src, q.IP.Dst, q.Eth.VLAN)
	}
	l.values["netstack.rung.mutate_ns"] = ns
	l.values["netstack.rung.mutate_allocs"] = allocs
	return nil
}

// --- netsim ---

func rungNetsim(l *ladder) error {
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "rung")
	var gotB, gotT int
	hostA := netsim.NewPort(s, "a", func([]byte) {})
	hostB := netsim.NewPort(s, "b", func([]byte) { gotB++ })
	hostT := netsim.NewPort(s, "t", func(f []byte) { gotT++ })
	netsim.Connect(hostA, sw.AddAccessPort("a", 10), 0)
	netsim.Connect(hostB, sw.AddAccessPort("b", 10), 0)
	netsim.Connect(hostT, sw.AddTrunkPort("t"), 0)
	macT := netstack.MAC{0x02, 0, 0, 0, 0, 0x0c}
	// Teach the bridge where b and the trunk-side station live.
	fromB := tcpPacket(64, netstack.NoVLAN)
	fromB.Eth.Src, fromB.Eth.Dst = rungMACb, rungMACa
	hostB.Send(fromB.Marshal())
	fromT := tcpPacket(68, 10)
	fromT.Eth.Src, fromT.Eth.Dst = macT, rungMACa
	hostT.Send(fromT.Marshal())
	s.Run()
	gotB, gotT = 0, 0 // the teaching frames flooded

	toB := tcpPacket(1078, netstack.NoVLAN).Marshal() // a 1 KiB payload, as bulk_dense sends
	toTpkt := tcpPacket(1078, netstack.NoVLAN)
	toTpkt.Eth.Dst = macT
	toT := toTpkt.Marshal()
	const batch = 16 // frames in flight per burst
	ops := max(batch, l.n(20000)/batch*batch)
	hop := func(frame []byte) func() {
		return func() {
			for i := 0; i < ops; i += batch {
				for j := 0; j < batch; j++ {
					hostA.Send(frame)
				}
				s.Run()
			}
		}
	}
	ns, allocs := l.measureOps("netsim.rung.switch_hop_ns", ops, hop(toB))
	l.values["netsim.rung.switch_hop_ns"] = ns
	l.values["netsim.rung.switch_hop_allocs"] = allocs
	ns, _ = l.measureOps("netsim.rung.retag_hop_ns", ops, hop(toT))
	l.values["netsim.rung.retag_hop_ns"] = ns
	if want := ops * rungReps; gotB != want || gotT != want {
		return fmt.Errorf("switch delivered %d access and %d trunk frames, want %d each", gotB, gotT, want)
	}
	return nil
}

// --- host ---

// hostPair is two hosts on one link.
func hostPair() (*sim.Simulator, *host.Host, *host.Host) {
	s := sim.New(1)
	a := host.New(s, "a", rungMACa)
	b := host.New(s, "b", rungMACb)
	netsim.Connect(a.NIC(), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	return s, a, b
}

// hostBulk pushes total bytes a->b in writes of writeSize and returns the
// host seconds it took.
func hostBulk(sm *sampler, total, writeSize int) error {
	s, a, b := hostPair()
	p := &pusher{total: uint64(total), window: 4 * 64 << 10}
	zero := make([]byte, writeSize)
	for n := 0; n < total; n += writeSize {
		p.writes = append(p.writes, zero[:min(writeSize, total-n)])
	}
	if writeSize >= total {
		p.window = uint64(total) + 1 // the one write goes out whole
	}
	if err := b.Listen(80, func(c *host.Conn) { p.sinkInto(c, s.Now) }); err != nil {
		return err
	}
	p.conn = a.Dial(b.Addr(), 80)
	p.ticker = s.Every(250*time.Microsecond, p.tick)
	sm.run(total, func() {
		for i := 0; i < 100000 && !p.done(); i++ {
			s.RunFor(10 * time.Millisecond)
		}
	})
	if !p.done() {
		return fmt.Errorf("bulk transfer delivered %d of %d bytes", p.received, total)
	}
	return nil
}

func rungHost(l *ladder) error {
	ns, allocs, err := l.repeat("host.rung.tcp_bulk_mb_s", func(sm *sampler) error {
		return hostBulk(sm, l.n(8<<20), 64<<10)
	})
	if err != nil {
		return err
	}
	l.values["host.rung.tcp_bulk_mb_s"] = mbPerS(ns)
	l.values["host.rung.tcp_bulk_allocs_per_kib"] = allocs * 1024
	// One write of the whole payload: the send buffer holds all of it and
	// is re-sliced per ACK. Recorded because it is anomalously slow.
	ns, _, err = l.repeat("host.rung.tcp_bulk_1write_mb_s", func(sm *sampler) error {
		return hostBulk(sm, l.n(32<<20), l.n(32<<20))
	})
	if err != nil {
		return err
	}
	l.values["host.rung.tcp_bulk_1write_mb_s"] = mbPerS(ns)

	// Connect, close both ways, next.
	s, a, b := hostPair()
	cycles := l.n(2000)
	var served, completed int
	if err := b.Listen(80, func(c *host.Conn) {
		served++
		c.OnPeerClose = func() { c.Close() }
	}); err != nil {
		return err
	}
	var dial func()
	dial = func() {
		c := a.Dial(b.Addr(), 80)
		c.OnConnect = func() { c.Close() }
		c.OnPeerClose = func() {
			if completed++; completed%cycles != 0 {
				dial()
			}
		}
	}
	ns, _ = l.measureOps("host.rung.connect_close_ns", cycles, func() {
		dial()
		s.Run()
	})
	if want := cycles * rungReps; served != want || completed != want {
		return fmt.Errorf("connect/close served %d and completed %d of %d", served, completed, want)
	}
	l.values["host.rung.connect_close_ns"] = ns
	return nil
}

// --- gateway ---

// miniFarm is one subfarm with one inmate under the named policy and an
// external target; hook runs when the inmate has booted.
func miniFarm(policyName string, hook func(fi *farm.FarmInmate)) (*farm.Farm, *host.Host, error) {
	f := farm.New(1)
	target := f.AddExternalHost("target", rungIPb)
	cfg := subfarmConfig("rung", 0, 1)
	cfg.FallbackPolicy = policyName
	sf, err := f.AddSubfarm(cfg)
	if err != nil {
		return nil, nil, err
	}
	sf.OnBootHook = hook
	if _, err := sf.AddInmate("rung"); err != nil {
		return nil, nil, err
	}
	return f, target, nil
}

const miniFarmStart = 5 * time.Second

// gatewayBulk pushes total bytes from the inmate to the target through one
// flow contained by the named policy.
func gatewayBulk(sm *sampler, policyName string, total int) error {
	p := &pusher{total: uint64(total), window: 4 * 64 << 10, writes: splitWrites(rand.New(rand.NewSource(1)), total, 64<<10)}
	f, target, err := miniFarm(policyName, func(fi *farm.FarmInmate) {
		p.conn = fi.Host.Dial(rungIPb, 80)
		s := fi.Host.Sim()
		s.ScheduleAt(miniFarmStart, func() { p.ticker = s.Every(250*time.Microsecond, p.tick) })
	})
	if err != nil {
		return err
	}
	if err := target.Listen(80, func(c *host.Conn) { p.sinkInto(c, f.Sim.Now) }); err != nil {
		return err
	}
	f.Run(miniFarmStart - time.Millisecond)
	sm.run(total, func() {
		for i := 0; i < 100000 && !p.done(); i++ {
			f.Run(10 * time.Millisecond)
		}
	})
	if !p.done() {
		return fmt.Errorf("%s: delivered %d of %d bytes", policyName, p.received, total)
	}
	return nil
}

func rungGateway(l *ladder) error {
	// Flow setup: sequential one-byte request/echo/close flows under
	// FORWARD, so each op is SYN, shim round trip to the containment server,
	// verdict, splice to the responder, and teardown.
	flows := l.n(300)
	ns, _, err := l.repeat("gateway.rung.flow_setup_us", func(sm *sampler) error {
		var completed int
		var dial func()
		var inmate *host.Host
		dial = func() {
			c := inmate.Dial(rungIPb, 80)
			c.OnConnect = func() { c.Write([]byte{'?'}) }
			c.OnData = func([]byte) { c.Close() }
			c.OnPeerClose = func() {
				if completed++; completed < flows {
					dial()
				}
			}
		}
		f, target, err := miniFarm("AllowAll", func(fi *farm.FarmInmate) {
			inmate = fi.Host
			fi.Host.Sim().ScheduleAt(miniFarmStart, dial)
		})
		if err != nil {
			return err
		}
		if err := target.Listen(80, func(c *host.Conn) {
			c.OnData = func(d []byte) { c.Write(d) }
			c.OnPeerClose = func() { c.Close() }
		}); err != nil {
			return err
		}
		f.Run(miniFarmStart - time.Millisecond)
		sm.run(flows, func() { f.Run(20 * time.Second) })
		if v := f.Subfarms[0].Router.VerdictsApplied.Value(); completed != flows || v != uint64(flows) {
			return fmt.Errorf("flow setup completed %d flows with %d verdicts, want %d", completed, v, flows)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.values["gateway.rung.flow_setup_us"] = ns / 1e3

	for _, c := range []struct{ key, policy string }{
		{"gateway.rung.splice_mb_s", "AllowAll"}, {"gateway.rung.proxy_mb_s", "BenchPassThrough"},
	} {
		ns, _, err := l.repeat(c.key, func(sm *sampler) error { return gatewayBulk(sm, c.policy, l.n(4<<20)) })
		if err != nil {
			return err
		}
		l.values[c.key] = mbPerS(ns)
	}
	return nil
}

// --- nat ---

func rungNAT(l *ladder) error {
	const inmates = 1000
	t := nat.NewTable(netstack.MustParsePrefix("192.0.0.0/16"), 16, nat.ForwardInbound)
	internal := func(i int) netstack.Addr { return netstack.AddrFrom4(10, 0, byte(i>>8), byte(i)) }
	globals := make([]netstack.Addr, inmates)
	for i := range globals {
		b := t.Learn(uint16(100+i), internal(i), rungMACa)
		if b == nil {
			return fmt.Errorf("pool exhausted after %d bindings", i)
		}
		globals[i] = b.Global
	}
	p := tcpPacket(64, 100)
	p.Eth.Src = rungMACa
	ops := l.n(200000)
	good := 0
	ns, _ := l.measureOps("nat.rung.outbound_ns", ops, func() {
		for i := 0; i < ops; i++ {
			k := i % inmates
			p.Eth.VLAN, p.IP.Src = uint16(100+k), internal(k)
			if t.Outbound(p) && p.IP.Src == globals[k] {
				good++
			}
		}
	})
	l.values["nat.rung.outbound_ns"] = ns
	if good != ops*rungReps {
		return fmt.Errorf("outbound translated %d of %d", good, ops*rungReps)
	}
	good = 0
	ns, _ = l.measureOps("nat.rung.inbound_ns", ops, func() {
		for i := 0; i < ops; i++ {
			k := i % inmates
			p.IP.Dst = globals[k]
			if b := t.Inbound(p); b != nil && p.IP.Dst == internal(k) {
				good++
			}
		}
	})
	l.values["nat.rung.inbound_ns"] = ns
	if good != ops*rungReps {
		return fmt.Errorf("inbound translated %d of %d", good, ops*rungReps)
	}
	return nil
}

// --- shim ---

func rungShim(l *ladder) error {
	req := &shim.Request{OrigIP: rungIPa, RespIP: rungIPb, OrigPort: 1234, RespPort: 80, VLAN: 12, NoncePort: 42}
	resp := &shim.Response{Verdict: shim.Rewrite, PolicyName: "Rustock", Annotation: "C&C filtering"}
	ops := l.n(50000)
	var gotReq *shim.Request
	var gotResp *shim.Response
	var err error
	ns, allocs := l.measureOps("shim.rung.codec_ns", ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			if gotReq, err = shim.UnmarshalRequest(req.Marshal()); err != nil {
				return
			}
			gotResp, _, err = shim.UnmarshalResponse(resp.Marshal())
		}
	})
	if err != nil || *gotReq != *req || gotResp.Verdict != resp.Verdict || gotResp.PolicyName != resp.PolicyName || gotResp.Annotation != resp.Annotation {
		return fmt.Errorf("shim did not round-trip: %v", err)
	}
	l.values["shim.rung.codec_ns"] = ns
	l.values["shim.rung.codec_allocs"] = allocs
	return nil
}

// --- policy ---

// fig6Config is the paper's Fig. 6 containment server configuration.
const fig6Config = "[VLAN 16-17]\nDecider = Rustock\nInfection = rustock.100921.*.exe\n\n" +
	"[VLAN 18-19]\nDecider = Grum\nInfection = grum.100818.*.exe\n\n" +
	"[VLAN 16-19]\nTrigger = *:25/tcp / 30min < 1 -> revert\n\n" +
	"[Autoinfect]\nAddress = 10.9.8.7\nPort = 6543\n\n" +
	"[BannerSmtpSink]\nAddress = 10.3.1.4\nPort = 2526\n"

func rungPolicy(l *ladder) error {
	env := &policy.Env{
		Services: map[string]policy.AddrPort{
			policy.SvcCatchAllSink: {Addr: netstack.MustParseAddr("10.3.0.2")},
			policy.SvcSMTPSink:     {Addr: netstack.MustParseAddr("10.3.0.3"), Port: 25},
			policy.SvcAutoinfect:   farm.DefaultAutoinfect,
		},
		InternalPrefix: netstack.MustParsePrefix("10.0.0.0/16"),
	}
	d, err := policy.New("Rustock", env)
	if err != nil {
		return err
	}
	// One request per Rustock branch: C&C forward, C&C rewrite, SMTP
	// reflect, catch-all reflect.
	want := map[uint16]shim.Verdict{443: shim.Forward, 80: shim.Rewrite, 25: shim.Reflect, 6667: shim.Reflect}
	ports := []uint16{443, 80, 25, 6667}
	req := &shim.Request{OrigIP: rungIPa, OrigPort: 1234, RespIP: rungIPb, VLAN: 16}
	ops := l.n(200000)
	good := 0
	ns, _ := l.measureOps("policy.rung.decide_ns", ops, func() {
		for i := 0; i < ops; i++ {
			req.RespPort = ports[i&3]
			if d.Decide(req).Verdict == want[req.RespPort] {
				good++
			}
		}
	})
	if good != ops*rungReps {
		return fmt.Errorf("Rustock gave the expected verdict %d of %d times", good, ops*rungReps)
	}
	l.values["policy.rung.decide_ns"] = ns

	parses := l.n(2000)
	var cfg *policy.Config
	ns, _ = l.measureOps("policy.rung.parse_config_us", parses, func() {
		for i := 0; i < parses && err == nil; i++ {
			cfg, err = policy.Parse(fig6Config)
		}
	})
	if err != nil || len(cfg.VLANRules) != 3 {
		return fmt.Errorf("Fig. 6 config did not parse to 3 rules: %v", err)
	}
	l.values["policy.rung.parse_config_us"] = ns / 1e3
	return nil
}

// --- smtpx ---

func rungSMTP(l *ladder) error {
	lines := [][]byte{}
	for _, s := range []string{"HELO bot", "MAIL FROM:<a@b.c>", "RCPT TO:<v@x.y>", "DATA", "Subject: x", "", "body", ".", "QUIT"} {
		lines = append(lines, []byte(s+"\r\n"))
	}
	ops := l.n(20000)
	envelopes := 0
	ns, _ := l.measureOps("smtpx.rung.session_ns", ops, func() {
		for i := 0; i < ops; i++ {
			eng := smtpx.NewEngine(smtpx.Lenient, func(string) {}, nil)
			eng.Greet("220 bench")
			for _, line := range lines {
				eng.Feed(line)
			}
			envelopes += int(eng.Envelopes)
		}
	})
	if envelopes != ops*rungReps {
		return fmt.Errorf("SMTP engine accepted %d envelopes of %d sessions", envelopes, ops*rungReps)
	}
	l.values["smtpx.rung.session_ns"] = ns
	return nil
}

// --- obs ---

func rungObs(l *ladder) error {
	var now time.Duration
	o := obs.New(func() time.Duration { return now })
	out := &hashSink{} // count only: hashing is not the journal's cost
	sink := o.Journal.AttachNDJSON(out)
	sc := o.Scope("rung", obs.DefaultRingSize)
	ev := obs.Event{
		Type: obs.EvFlowVerdict, VLAN: 16, Proto: netstack.ProtoTCP,
		SrcIP: uint32(rungIPa), SrcPort: 1234, DstIP: uint32(rungIPb), DstPort: 80,
		Verdict: uint32(shim.Reflect), Detail: "DefaultDeny",
	}
	ops := l.n(100000)
	ns, allocs := l.measureOps("obs.rung.emit_ns", ops, func() {
		for i := 0; i < ops; i++ {
			now += time.Microsecond
			sc.Emit(ev)
		}
	})
	if err := sink.Flush(); err != nil {
		return err
	}
	if o.Journal.Emitted != uint64(ops*rungReps) || out.n == 0 {
		return fmt.Errorf("journal emitted %d events (%d bytes), want %d", o.Journal.Emitted, out.n, ops*rungReps)
	}
	l.values["obs.rung.emit_ns"] = ns
	l.values["obs.rung.emit_allocs"] = allocs

	c := o.Reg.Counter("rung.counter")
	incs := l.n(1000000)
	ns, _ = l.measureOps("obs.rung.counter_inc_ns", incs, func() {
		for i := 0; i < incs; i++ {
			c.Inc()
		}
	})
	if c.Value() != uint64(incs*rungReps) {
		return fmt.Errorf("counter reads %d, want %d", c.Value(), incs*rungReps)
	}
	l.values["obs.rung.counter_inc_ns"] = ns
	return nil
}
