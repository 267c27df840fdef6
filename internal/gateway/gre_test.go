package gateway_test

import (
	"strings"
	"testing"
	"time"

	"gq/internal/containment"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/shim"
	"gq/internal/sim"
)

// greTestbed: a farm whose primary pool holds exactly one usable address,
// plus a GRE tunnel contributing a second /24 via a peer router on the
// outside segment.
func greTestbed(t *testing.T) *testbed {
	t.Helper()
	s := sim.New(77)
	tb := &testbed{sim: s}
	tb.gw = gateway.New(s)
	tb.inSw = netsim.NewSwitch(s, "inmate-sw")
	tb.extSw = netsim.NewSwitch(s, "internet-sw")
	netsim.Connect(tb.inSw.AddTrunkPort("uplink"), tb.gw.Trunk(), 0)
	netsim.Connect(tb.extSw.AddAccessPort("gw", 100), tb.gw.Outside(), 0)

	tunnel := gateway.GRETunnel{
		LocalAddr: netstack.MustParseAddr("192.0.2.2"), // farm space, below pool start
		PeerAddr:  netstack.MustParseAddr("198.51.100.254"),
		ExtraPool: netstack.MustParsePrefix("203.0.114.0/24"),
		PoolStart: 16,
	}
	tb.router = tb.gw.AddRouterIn(tb.gw.Sim, gateway.RouterConfig{
		Name:   "grefarm",
		VLANLo: 10, VLANHi: 30,
		ServiceVLANs:    []uint16{serviceVLAN},
		InternalPrefix:  netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:        netstack.MustParseAddr("10.0.0.1"),
		ServicePrefix:   netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP: netstack.MustParseAddr("10.3.0.254"),
		// /28: indices 14 usable, start 14 -> exactly ONE address (.14)
		// before the pool exhausts (.15 is broadcast).
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/28"),
		GlobalPoolStart:    14,
		ContainmentCluster: []gateway.ContainmentEndpoint{{VLAN: serviceVLAN, IP: csIP, Port: csPort}},
		NonceIP:            nonceIP,
		GRETunnels:         []gateway.GRETunnel{tunnel},
	})

	csHost := tb.addServiceHost(t, "cs", csIP)
	var err error
	tb.cs, err = containment.NewServer(csHost, csPort, nonceIP)
	if err != nil {
		t.Fatal(err)
	}
	tb.sink = tb.addServiceHost(t, "sink", sinkIP)
	tb.router.RegisterServiceHost(sinkIP, serviceVLAN)
	tb.inmate = tb.addInmate(t, inmateIP, inmateVLAN)

	peer := gateway.NewGREPeer(s, tunnel)
	netsim.Connect(tb.extSw.AddAccessPort("grepeer", 100), peer.Port(), 0)
	return tb
}

func TestGRETunnelExtendsAddressSpace(t *testing.T) {
	tb := greTestbed(t)
	tb.cs.SetFallback(policyFunc{"AllowAll", func(req *shim.Request) containment.Decision {
		return containment.Decision{Verdict: shim.Forward}
	}})
	// External server records source addresses.
	var sources []netstack.Addr
	var bodies []string
	ext := tb.addExternal(t, "web", netstack.MustParseAddr("198.51.100.10"))
	ext.Listen(80, func(c *host.Conn) {
		src, _ := c.RemoteAddr()
		sources = append(sources, src)
		c.OnData = func(d []byte) {
			bodies = append(bodies, string(d))
			c.Write([]byte("pong:" + string(d)))
		}
	})

	// Inmate 1 gets the last primary-pool address.
	var got1 []byte
	c1 := tb.inmate.Dial(netstack.MustParseAddr("198.51.100.10"), 80)
	c1.OnConnect = func() { c1.Write([]byte("one")) }
	c1.OnData = func(d []byte) { got1 = append(got1, d...) }
	tb.sim.RunFor(10 * time.Second)

	// Inmate 2's binding must come from the tunnelled pool.
	inmate2 := tb.addInmate(t, netstack.MustParseAddr("10.0.0.24"), 17)
	var got2 []byte
	c2 := inmate2.Dial(netstack.MustParseAddr("198.51.100.10"), 80)
	c2.OnConnect = func() { c2.Write([]byte("two")) }
	c2.OnData = func(d []byte) { got2 = append(got2, d...) }
	tb.sim.RunFor(30 * time.Second)

	if string(got1) != "pong:one" {
		t.Fatalf("primary-pool inmate got %q", got1)
	}
	if string(got2) != "pong:two" {
		t.Fatalf("tunnel-pool inmate got %q", got2)
	}
	if len(sources) != 2 {
		t.Fatalf("server saw %d connections", len(sources))
	}
	if sources[0] != netstack.MustParseAddr("192.0.2.14") {
		t.Fatalf("inmate 1 source %v, want last primary address", sources[0])
	}
	if !netstack.MustParsePrefix("203.0.114.0/24").Contains(sources[1]) {
		t.Fatalf("inmate 2 source %v, want tunnelled pool", sources[1])
	}
	// The tunnel actually carried traffic both ways.
	if tb.gw.GRETx.Value() == 0 || tb.gw.GRERx.Value() == 0 {
		t.Fatalf("gateway GRE counters tx=%d rx=%d", tb.gw.GRETx.Value(), tb.gw.GRERx.Value())
	}
}

func TestGRECodecRoundTrip(t *testing.T) {
	p := &netstack.Packet{
		IP:      &netstack.IPv4{TTL: 64, Protocol: netstack.ProtoTCP, Src: 1, Dst: 2},
		TCP:     &netstack.TCP{SrcPort: 1234, DstPort: 80, Flags: netstack.FlagSYN},
		Payload: nil,
	}
	inner := netstack.MarshalIPPacket(p)
	wrapped := netstack.GREEncap(inner)
	if len(wrapped) != netstack.GREHeaderLen+len(inner) {
		t.Fatalf("GRE length %d", len(wrapped))
	}
	back, err := netstack.GREDecap(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	q, err := netstack.ParseIPPacket(back)
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP == nil || q.TCP.SrcPort != 1234 || q.IP.Src != 1 {
		t.Fatalf("round trip %+v", q)
	}
	// Rejections.
	if _, err := netstack.GREDecap([]byte{0, 0}); err == nil {
		t.Error("short GRE accepted")
	}
	bad := append([]byte{0x80, 0, 0x08, 0}, inner...)
	if _, err := netstack.GREDecap(bad); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Error("flagged GRE accepted")
	}
}
