package gateway_test

import (
	"strings"
	"testing"
	"time"

	"gq/internal/containment"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/nat"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/shim"
	"gq/internal/sim"
)

// testbed assembles a one-subfarm farm: inmate switch with trunked gateway,
// containment server and sink on a service VLAN, one inmate, and an
// external "Internet" switch with servers.
type testbed struct {
	sim     *sim.Simulator
	gw      *gateway.Gateway
	router  *gateway.Router
	cs      *containment.Server
	inmate  *host.Host
	sink    *host.Host
	extSw   *netsim.Switch
	inSw    *netsim.Switch
	nextMAC byte
}

var (
	csIP     = netstack.MustParseAddr("10.3.0.1")
	sinkIP   = netstack.MustParseAddr("10.3.1.4")
	nonceIP  = netstack.MustParseAddr("10.4.0.1")
	inmateIP = netstack.MustParseAddr("10.0.0.23")
	extWebIP = netstack.MustParseAddr("203.0.113.80")
)

const (
	inmateVLAN  = 16
	serviceVLAN = 2
	csPort      = 6666
)

// newTestbed builds the testbed; tweak, if given, edits the router's
// config before it is built.
func newTestbed(t *testing.T, seed int64, tweak ...func(*gateway.RouterConfig)) *testbed {
	t.Helper()
	s := sim.New(seed)
	tb := &testbed{sim: s}
	tb.gw = gateway.New(s)
	tb.inSw = netsim.NewSwitch(s, "inmate-sw")
	tb.extSw = netsim.NewSwitch(s, "internet-sw")
	netsim.Connect(tb.inSw.AddTrunkPort("uplink"), tb.gw.Trunk(), 0)
	netsim.Connect(tb.extSw.AddAccessPort("gw", 100), tb.gw.Outside(), 0)

	cfg := gateway.RouterConfig{
		Name:   "testfarm",
		VLANLo: 10, VLANHi: 30,
		ServiceVLANs:       []uint16{serviceVLAN},
		InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:           netstack.MustParseAddr("10.0.0.1"),
		ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP:    netstack.MustParseAddr("10.3.0.254"),
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
		GlobalPoolStart:    16,
		ContainmentCluster: []gateway.ContainmentEndpoint{{VLAN: serviceVLAN, IP: csIP, Port: csPort}},
		NonceIP:            nonceIP,
	}
	for _, fn := range tweak {
		fn(&cfg)
	}
	tb.router = tb.gw.AddRouterIn(tb.gw.Sim, cfg)

	// Containment server host.
	csHost := tb.addServiceHost(t, "cs", csIP)
	var err error
	tb.cs, err = containment.NewServer(csHost, csPort, nonceIP)
	if err != nil {
		t.Fatal(err)
	}

	// Catch-all sink host.
	tb.sink = tb.addServiceHost(t, "sink", sinkIP)
	tb.router.RegisterServiceHost(sinkIP, serviceVLAN)

	// One inmate.
	tb.inmate = tb.addInmate(t, inmateIP, inmateVLAN)

	// External web server.
	tb.addExternal(t, "web", extWebIP)
	return tb
}

func (tb *testbed) mac() netstack.MAC {
	tb.nextMAC++
	return netstack.MAC{2, 0, 0, 0, 1, tb.nextMAC}
}

func (tb *testbed) addServiceHost(t *testing.T, name string, addr netstack.Addr) *host.Host {
	t.Helper()
	h := host.New(tb.sim, name, tb.mac())
	netsim.Connect(tb.inSw.AddAccessPort(name, serviceVLAN), h.NIC(), 0)
	h.ConfigureStatic(addr, 16, netstack.MustParseAddr("10.3.0.254"))
	return h
}

func (tb *testbed) addInmate(t *testing.T, addr netstack.Addr, vlan uint16) *host.Host {
	t.Helper()
	h := host.New(tb.sim, "inmate", tb.mac())
	netsim.Connect(tb.inSw.AddAccessPort("inmate", vlan), h.NIC(), 0)
	h.ConfigureStatic(addr, 16, netstack.MustParseAddr("10.0.0.1"))
	return h
}

func (tb *testbed) addExternal(t *testing.T, name string, addr netstack.Addr) *host.Host {
	t.Helper()
	h := host.New(tb.sim, name, tb.mac())
	netsim.Connect(tb.extSw.AddAccessPort(name, 100), h.NIC(), 0)
	h.ConfigureStatic(addr, 0, 0) // flat Internet: everything on-link
	return h
}

// policyFunc adapts a closure to the Decider interface.
type policyFunc struct {
	name string
	fn   func(req *shim.Request) containment.Decision
}

func (p policyFunc) Name() string { return p.name }
func (p policyFunc) Decide(req *shim.Request) containment.Decision {
	return p.fn(req)
}

// webEcho runs a server on h that records request lines and answers 200.
func webEcho(h *host.Host, port uint16, banner string) *[]string {
	var got []string
	h.Listen(port, func(c *host.Conn) {
		c.OnData = func(d []byte) {
			got = append(got, string(d))
			c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: " + banner + "\r\n\r\n"))
		}
		c.OnPeerClose = func() { c.Close() }
	})
	return &got
}

func TestForwardVerdictEndToEnd(t *testing.T) {
	tb := newTestbed(t, 1)
	tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward, Annotation: "C&C"}
	}})

	var serverSaw []string
	var serverFrom netstack.Addr
	ext := tb.addExternal(t, "cc", netstack.MustParseAddr("198.51.100.7"))
	ext.Listen(80, func(c *host.Conn) {
		serverFrom, _ = c.RemoteAddr()
		c.OnData = func(d []byte) {
			serverSaw = append(serverSaw, string(d))
			c.Write([]byte("RESPONSE-FROM-CC"))
		}
		c.OnPeerClose = func() { c.Close() }
	})

	var got []byte
	var closed bool
	c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.7"), 80)
	c.OnConnect = func() { c.Write([]byte("GET /c2 HTTP/1.1\r\n\r\n")) }
	c.OnData = func(d []byte) { got = append(got, d...); c.Close() }
	c.OnClose = func(err error) { closed = true }
	tb.sim.RunFor(30 * time.Second)

	if len(serverSaw) != 1 || !strings.Contains(serverSaw[0], "GET /c2") {
		t.Fatalf("server saw %q", serverSaw)
	}
	if string(got) != "RESPONSE-FROM-CC" {
		t.Fatalf("inmate got %q", got)
	}
	if !closed {
		t.Fatal("inmate connection never closed")
	}
	// The external server must see the inmate's NAT'd global address.
	if serverFrom != netstack.MustParseAddr("192.0.2.16") {
		t.Fatalf("server saw source %v, want NAT global 192.0.2.16", serverFrom)
	}
	recs := tb.router.Records()
	if len(recs) != 1 || recs[0].Verdict != shim.Forward || recs[0].Policy != "AllowAll" {
		t.Fatalf("records %+v", recs)
	}
	if recs[0].Annotation != "C&C" {
		t.Fatalf("annotation %q", recs[0].Annotation)
	}
}

func TestDropVerdict(t *testing.T) {
	tb := newTestbed(t, 2)
	tb.cs.SetFallback(policyFunc{"DefaultDeny", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Drop}
	}})
	serverSaw := webEcho(tb.inmate, 9, "0") // placeholder; unused
	_ = serverSaw

	extSaw := webEcho(mustExternal(t, tb, "victim", "198.51.100.9"), 80, "0")

	var resetErr error
	c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.9"), 80)
	c.OnConnect = func() { c.Write([]byte("ATTACK")) }
	c.OnClose = func(err error) { resetErr = err }
	tb.sim.RunFor(30 * time.Second)

	if len(*extSaw) != 0 {
		t.Fatalf("contained traffic leaked to the victim: %q", *extSaw)
	}
	if resetErr == nil {
		t.Fatal("inmate connection should have been reset")
	}
}

func mustExternal(t *testing.T, tb *testbed, name, addr string) *host.Host {
	return tb.addExternal(t, name, netstack.MustParseAddr(addr))
}

func TestReflectVerdictToSink(t *testing.T) {
	tb := newTestbed(t, 3)
	tb.cs.SetFallback(policyFunc{"ReflectAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{
			Verdict: shim.Reflect,
			RespIP:  sinkIP, RespPort: req.RespPort,
			Annotation: "full containment",
		}
	}})
	// Sink accepts anything on port 25.
	var sinkSaw []string
	tb.sink.Listen(25, func(c *host.Conn) {
		c.Write([]byte("220 sink ready\r\n"))
		c.OnData = func(d []byte) { sinkSaw = append(sinkSaw, string(d)) }
	})
	extSaw := webEcho(mustExternal(t, tb, "mx", "198.51.100.25"), 25, "0")

	var banner []byte
	c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.25"), 25)
	c.OnData = func(d []byte) {
		banner = append(banner, d...)
		c.Write([]byte("HELO spambot\r\n"))
	}
	tb.sim.RunFor(30 * time.Second)

	if len(*extSaw) != 0 {
		t.Fatal("reflected traffic reached the real MX")
	}
	if !strings.Contains(string(banner), "220 sink ready") {
		t.Fatalf("inmate banner %q", banner)
	}
	if len(sinkSaw) == 0 || !strings.Contains(sinkSaw[0], "HELO spambot") {
		t.Fatalf("sink saw %q", sinkSaw)
	}
}

func TestRedirectVerdict(t *testing.T) {
	tb := newTestbed(t, 4)
	honeypot := netstack.MustParseAddr("198.51.100.99")
	tb.cs.SetFallback(policyFunc{"RedirectAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Redirect, RespIP: honeypot, RespPort: 8080}
	}})
	origSaw := webEcho(mustExternal(t, tb, "orig", "198.51.100.50"), 80, "0")
	var altSaw []string
	alt := mustExternal(t, tb, "alt", "198.51.100.99")
	alt.Listen(8080, func(c *host.Conn) {
		c.OnData = func(d []byte) {
			altSaw = append(altSaw, string(d))
			c.Write([]byte("ALT"))
		}
	})

	var got []byte
	c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.50"), 80)
	c.OnConnect = func() { c.Write([]byte("probe")) }
	c.OnData = func(d []byte) { got = append(got, d...) }
	tb.sim.RunFor(30 * time.Second)

	if len(*origSaw) != 0 {
		t.Fatal("redirect leaked to original destination")
	}
	if len(altSaw) != 1 || altSaw[0] != "probe" {
		t.Fatalf("alternate target saw %q", altSaw)
	}
	if string(got) != "ALT" {
		t.Fatalf("inmate got %q (should believe it talks to the original)", got)
	}
}

// rewriteHandler implements the Fig. 5 scenario: the request path is
// rewritten before reaching the real server, and the server's response is
// rewritten into a 404 before reaching the inmate.
type rewriteHandler struct{}

func (rewriteHandler) OnClientData(s *containment.Session, data []byte) {
	out := strings.Replace(string(data), "GET /bot.exe", "GET /cleanup.exe", 1)
	s.WriteServer([]byte(out))
}
func (rewriteHandler) OnServerData(s *containment.Session, data []byte) {
	out := strings.Replace(string(data), "HTTP/1.1 200 OK", "HTTP/1.1 404 NOT FOUND", 1)
	s.WriteClient([]byte(out))
}
func (rewriteHandler) OnClientClose(s *containment.Session) { s.CloseServer() }
func (rewriteHandler) OnServerClose(s *containment.Session) { s.CloseClient() }

func TestFigure5RewriteFlow(t *testing.T) { figure5RewriteFlow(t, newTestbed(t, 5)) }

func figure5RewriteFlow(t *testing.T, tb *testbed) {
	t.Helper()
	tb.cs.SetFallback(policyFunc{"Rewriter", func(req *shim.Request) containment.Decision {
		return containment.Decision{
			Verdict: shim.Rewrite, Handler: rewriteHandler{},
			Annotation: "C&C filtering",
		}
	}})

	var serverSaw []string
	web := tb.addExternal(t, "target", netstack.MustParseAddr("192.150.187.12"))
	web.Listen(80, func(c *host.Conn) {
		c.OnData = func(d []byte) {
			serverSaw = append(serverSaw, string(d))
			c.Write([]byte("HTTP/1.1 200 OK\r\n\r\nMZ-REAL-BINARY"))
		}
	})

	var got []byte
	c := tb.inmate.Dial(netstack.MustParseAddr("192.150.187.12"), 80)
	c.OnConnect = func() { c.Write([]byte("GET /bot.exe HTTP/1.1\r\n\r\n")) }
	c.OnData = func(d []byte) { got = append(got, d...) }
	tb.sim.RunFor(30 * time.Second)

	if len(serverSaw) != 1 || !strings.Contains(serverSaw[0], "GET /cleanup.exe") {
		t.Fatalf("server saw %q, want rewritten path", serverSaw)
	}
	if !strings.Contains(string(got), "404 NOT FOUND") {
		t.Fatalf("inmate got %q, want rewritten 404", got)
	}
	if strings.Contains(string(got), "200 OK") {
		t.Fatal("original status leaked through the rewrite")
	}
	recs := tb.router.Records()
	if len(recs) != 1 || !recs[0].Verdict.Has(shim.Rewrite) {
		t.Fatalf("records %+v", recs)
	}
}

// impersonateHandler answers the client itself: the destination never sees
// the flow (auto-infection works this way, §6.6).
type impersonateHandler struct{ reply string }

func (h impersonateHandler) OnClientData(s *containment.Session, data []byte) {
	s.WriteClient([]byte(h.reply))
	s.CloseClient()
}
func (impersonateHandler) OnServerData(s *containment.Session, data []byte) {}
func (impersonateHandler) OnClientClose(s *containment.Session)             {}
func (impersonateHandler) OnServerClose(s *containment.Session)             {}

func TestRewriteImpersonation(t *testing.T) {
	tb := newTestbed(t, 6)
	tb.cs.SetFallback(policyFunc{"AutoInfect", func(req *shim.Request) containment.Decision {
		return containment.Decision{
			Verdict: shim.Rewrite,
			Handler: impersonateHandler{reply: "HTTP/1.1 200 OK\r\n\r\nFAKE-SAMPLE"},
		}
	}})
	// Note: no host exists at 10.9.8.7 — the CS impersonates it.
	var got []byte
	var eof bool
	c := tb.inmate.Dial(netstack.MustParseAddr("10.9.8.7"), 6543)
	c.OnConnect = func() { c.Write([]byte("GET /sample HTTP/1.1\r\n\r\n")) }
	c.OnData = func(d []byte) { got = append(got, d...) }
	c.OnPeerClose = func() { eof = true; c.Close() }
	tb.sim.RunFor(30 * time.Second)

	if !strings.Contains(string(got), "FAKE-SAMPLE") {
		t.Fatalf("inmate got %q", got)
	}
	if !eof {
		t.Fatal("impersonated server should close the connection")
	}
}

func TestLimitVerdictThrottles(t *testing.T) {
	tb := newTestbed(t, 7)
	tb.cs.SetFallback(policyFunc{"Limiter", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Limit}
	}})
	var received int
	ext := mustExternal(t, tb, "fast", "198.51.100.40")
	ext.Listen(80, func(c *host.Conn) {
		c.OnData = func(d []byte) { received += len(d) }
	})

	payload := make([]byte, 512*1024)
	c := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.40"), 80)
	c.OnConnect = func() { c.Write(payload) }
	tb.sim.RunFor(10 * time.Second)

	// At 16 KB/s + 32 KB burst, 10s admits ~192 KB. Allow generous slack
	// but require real throttling versus the 512 KB offered.
	if received == 0 {
		t.Fatal("limit verdict blocked everything")
	}
	if received > 300*1024 {
		t.Fatalf("limit verdict admitted %d bytes in 10s", received)
	}
}

func TestInboundFlowContainment(t *testing.T) {
	tb := newTestbed(t, 8, func(cfg *gateway.RouterConfig) { cfg.InboundMode = nat.ForwardInbound })
	tb.cs.SetFallback(policyFunc{"StormProxy", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward, Annotation: "proxy reachability"}
	}})
	// Inmate runs a service (Storm proxy style).
	var inmateSaw []string
	tb.inmate.Listen(8001, func(c *host.Conn) {
		c.OnData = func(d []byte) {
			inmateSaw = append(inmateSaw, string(d))
			c.Write([]byte("PROXY-ACK"))
		}
	})
	// Prime the NAT binding with some outbound chatter first (the paper's
	// dynamic binding needs boot-time traffic).
	warm := tb.inmate.Dial(extWebIP, 80)
	tb.sim.RunFor(5 * time.Second)
	warm.Abort()

	var got []byte
	ext := mustExternal(t, tb, "master", "198.51.100.66")
	c := ext.Dial(netstack.MustParseAddr("192.0.2.16"), 8001)
	c.OnConnect = func() { c.Write([]byte("RELAY-JOB")) }
	c.OnData = func(d []byte) { got = append(got, d...) }
	tb.sim.RunFor(30 * time.Second)

	if len(inmateSaw) != 1 || inmateSaw[0] != "RELAY-JOB" {
		t.Fatalf("inmate saw %q", inmateSaw)
	}
	if string(got) != "PROXY-ACK" {
		t.Fatalf("external initiator got %q", got)
	}
	// The flow must have been adjudicated.
	var sawInbound bool
	for _, rec := range tb.router.Records() {
		if rec.OrigIP == ext.Addr() && rec.Verdict == shim.Forward {
			sawInbound = true
		}
	}
	if !sawInbound {
		t.Fatal("inbound flow was not adjudicated by the containment server")
	}
}

func TestInboundDroppedInHomeUserMode(t *testing.T) {
	tb := newTestbed(t, 9)
	tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward}
	}})
	// Prime the binding.
	warm := tb.inmate.Dial(extWebIP, 80)
	tb.sim.RunFor(5 * time.Second)
	warm.Abort()

	var connected bool
	ext := mustExternal(t, tb, "scanner", "198.51.100.13")
	c := ext.Dial(netstack.MustParseAddr("192.0.2.16"), 445)
	c.OnConnect = func() { connected = true }
	tb.sim.RunFor(30 * time.Second)
	if connected {
		t.Fatal("home-user NAT mode let an inbound connection through")
	}
}

func TestSafetyFilterCapsConnectionRate(t *testing.T) {
	tb := newTestbed(t, 10)
	cfgRouter := tb.gw.AddRouterIn(tb.gw.Sim, gateway.RouterConfig{
		Name:   "limited",
		VLANLo: 40, VLANHi: 50,
		ServiceVLANs:       []uint16{serviceVLAN},
		InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:           netstack.MustParseAddr("10.0.0.1"),
		ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP:    netstack.MustParseAddr("10.3.0.254"),
		GlobalPool:         netstack.MustParsePrefix("192.0.3.0/24"),
		GlobalPoolStart:    16,
		ContainmentCluster: []gateway.ContainmentEndpoint{{VLAN: serviceVLAN, IP: csIP, Port: csPort}},
		NonceIP:            nonceIP,

		MaxFlowsPerMinute:        10,
		MaxFlowsPerDestPerMinute: 3,
	})
	_ = cfgRouter
	tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward}
	}})
	worm := tb.addInmate(t, netstack.MustParseAddr("10.0.0.99"), 45)

	// 30 connection attempts to distinct addresses within a minute.
	for i := 0; i < 30; i++ {
		dst := netstack.AddrFrom4(198, 51, 100, byte(100+i))
		worm.Dial(dst, 445)
	}
	tb.sim.RunFor(20 * time.Second)
	if n := cfgRouter.FlowsCreated.Value(); n > 10 {
		t.Fatalf("safety filter admitted %d flows, cap is 10", n)
	}
	if n := cfgRouter.SafetyDrops.Value(); n < 20 {
		t.Fatalf("safety drops %d, want >= 20", n)
	}

	// Per-destination cap: hammer one address from a fresh window.
	tb.sim.RunFor(2 * time.Minute)
	before := cfgRouter.FlowsCreated.Value()
	for i := 0; i < 10; i++ {
		worm.Dial(netstack.MustParseAddr("198.51.100.200"), 25)
	}
	tb.sim.RunFor(10 * time.Second)
	if n := cfgRouter.FlowsCreated.Value() - before; n > 3 {
		t.Fatalf("per-destination cap admitted %d flows", n)
	}
}

func TestUDPForwardAndReflect(t *testing.T) {
	tb := newTestbed(t, 11)
	tb.cs.SetFallback(policyFunc{"UDPPolicy", func(req *shim.Request) containment.Decision {
		if req.RespPort == 53 {
			return containment.Decision{Verdict: shim.Forward}
		}
		return containment.Decision{Verdict: shim.Reflect, RespIP: sinkIP, RespPort: 9999}
	}})
	// External "DNS" echoes datagrams.
	ext := mustExternal(t, tb, "dns", "198.51.100.53")
	extSock, _ := ext.ListenUDP(53, nil)
	ext.ListenUDP(53+1, nil) // silence unused warnings pattern
	var extGot []string
	extSock.Close()
	extSock2, _ := ext.ListenUDP(53, func(src netstack.Addr, sp uint16, d []byte) {
		extGot = append(extGot, string(d))
	})
	_ = extSock2
	// Sink records datagrams on 9999.
	var sinkGot []string
	tb.sink.ListenUDP(9999, func(src netstack.Addr, sp uint16, d []byte) {
		sinkGot = append(sinkGot, string(d))
	})

	sock, _ := tb.inmate.ListenUDP(5000, nil)
	sock.SendTo(netstack.MustParseAddr("198.51.100.53"), 53, []byte("query"))
	sock.SendTo(netstack.MustParseAddr("198.51.100.53"), 4000, []byte("flood"))
	tb.sim.RunFor(30 * time.Second)

	if len(extGot) != 1 || extGot[0] != "query" {
		t.Fatalf("external DNS got %q", extGot)
	}
	if len(sinkGot) != 1 || sinkGot[0] != "flood" {
		t.Fatalf("sink got %q", sinkGot)
	}
}

// Containment invariant (DESIGN.md §5): with DefaultDeny (drop), zero
// inmate payload bytes reach any external endpoint.
func TestDefaultDenyContainmentInvariant(t *testing.T) {
	tb := newTestbed(t, 12)
	tb.cs.SetFallback(policyFunc{"DefaultDeny", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Drop}
	}})
	var leaked int
	for _, addr := range []string{"198.51.100.1", "198.51.100.2", "198.51.100.3"} {
		h := mustExternal(t, tb, "v"+addr, addr)
		for _, port := range []uint16{25, 80, 443} {
			p := port
			h.Listen(p, func(c *host.Conn) {
				c.OnData = func(d []byte) { leaked += len(d) }
			})
		}
	}
	for i := 0; i < 3; i++ {
		for _, port := range []uint16{25, 80, 443} {
			dst := netstack.AddrFrom4(198, 51, 100, byte(1+i))
			c := tb.inmate.Dial(dst, port)
			c.Write([]byte("MALICIOUS PAYLOAD"))
		}
	}
	tb.sim.RunFor(time.Minute)
	if leaked != 0 {
		t.Fatalf("containment invariant violated: %d bytes leaked", leaked)
	}
}

func TestShimAnalyzableOnWire(t *testing.T) {
	// The subfarm tap must observe the request shim in flight — this is
	// what the Bro-style reporting consumes.
	tb := newTestbed(t, 13)
	tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward}
	}})
	var sawRequestShim bool
	tb.router.AddTap(func(p *netstack.Packet) {
		if p.TCP != nil && len(p.Payload) == shim.RequestLen {
			if req, err := shim.UnmarshalRequest(p.Payload); err == nil {
				if req.VLAN == inmateVLAN && req.RespPort == 80 {
					sawRequestShim = true
				}
			}
		}
	})
	c := tb.inmate.Dial(extWebIP, 80)
	_ = c
	tb.sim.RunFor(10 * time.Second)
	if !sawRequestShim {
		t.Fatal("request shim not visible on the subfarm tap")
	}
}
