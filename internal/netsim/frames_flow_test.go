package netsim_test

import (
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

// reflectOrRewrite reflects every other flow to the sink and rewrites the
// rest through itself, passing both streams on unchanged.
type reflectOrRewrite struct {
	n    int
	sink netstack.Addr
}

func (*reflectOrRewrite) Name() string { return "ReflectOrRewrite" }
func (d *reflectOrRewrite) Decide(req *shim.Request) containment.Decision {
	if d.n++; d.n%2 == 0 {
		return containment.Decision{Verdict: shim.Rewrite, Handler: d}
	}
	return containment.Decision{Verdict: shim.Reflect, RespIP: d.sink, RespPort: req.RespPort}
}
func (*reflectOrRewrite) OnClientData(s *containment.Session, data []byte) { s.WriteServer(data) }
func (*reflectOrRewrite) OnServerData(s *containment.Session, data []byte) { s.WriteClient(data) }
func (*reflectOrRewrite) OnClientClose(s *containment.Session)             { s.CloseServer() }
func (*reflectOrRewrite) OnServerClose(s *containment.Session)             { s.CloseClient() }

// TestControlFramesComeFromTheList: once a farm is warm, every control frame
// of the per-flow path (DESIGN.md §3b) — the hosts' handshakes, data and
// teardowns, the gateway's request shim, its ACKs and resets on both
// containment-server legs, the leg-2 and reflected segments — is built in a
// buffer some receiver gave back to the domain's frame list. 1,000 flows,
// REFLECT and REWRITE in turn, make no buffer the list has to make. The
// farm is the gateway tests' one-subfarm testbed; the test lives here
// because only netsim's tests read the list's miss counter.
func TestControlFramesComeFromTheList(t *testing.T) {
	s := sim.New(46)
	gw := gateway.New(s)
	inSw, extSw := netsim.NewSwitch(s, "inmate-sw"), netsim.NewSwitch(s, "internet-sw")
	netsim.Connect(inSw.AddTrunkPort("uplink"), gw.Trunk(), 0)
	netsim.Connect(extSw.AddAccessPort("gw", 100), gw.Outside(), 0)
	const serviceVLAN, inmateVLAN, csPort = 2, 16, 6666
	addr := netstack.MustParseAddr
	csIP, sinkIP, nonceIP := addr("10.3.0.1"), addr("10.3.1.4"), addr("10.4.0.1")
	routerIP, serviceRouterIP := addr("10.0.0.1"), addr("10.3.0.254")
	router := gw.AddRouterIn(gw.Sim, gateway.RouterConfig{
		Name:   "testfarm",
		VLANLo: 10, VLANHi: 30,
		ServiceVLANs:       []uint16{serviceVLAN},
		InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:           routerIP,
		ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP:    serviceRouterIP,
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
		GlobalPoolStart:    16,
		ContainmentCluster: []gateway.ContainmentEndpoint{{VLAN: serviceVLAN, IP: csIP, Port: csPort}},
		NonceIP:            nonceIP,
	})
	macs := byte(0)
	attach := func(sw *netsim.Switch, name string, vlan uint16, ip netstack.Addr, bits int, via netstack.Addr) *host.Host {
		macs++
		h := host.New(s, name, netstack.MAC{2, 0, 0, 0, 1, macs})
		netsim.Connect(sw.AddAccessPort(name, vlan), h.NIC(), 0)
		h.ConfigureStatic(ip, bits, via)
		return h
	}
	cs, err := containment.NewServer(attach(inSw, "cs", serviceVLAN, csIP, 16, serviceRouterIP), csPort, nonceIP)
	if err != nil {
		t.Fatal(err)
	}
	cs.SetFallback(&reflectOrRewrite{sink: sinkIP})
	sink := attach(inSw, "sink", serviceVLAN, sinkIP, 16, serviceRouterIP)
	router.RegisterServiceHost(sinkIP, serviceVLAN)
	inmate := attach(inSw, "inmate", inmateVLAN, addr("10.0.0.23"), 16, routerIP)
	targetIP := addr("192.150.187.12")
	target := attach(extSw, "target", 100, targetIP, 0, 0) // flat Internet: everything on-link

	answer := func(c *host.Conn) {
		c.OnData = func([]byte) { c.Write([]byte("HTTP/1.1 200 OK\r\n\r\n")) }
		c.OnPeerClose = func() { c.Close() }
	}
	sink.Listen(80, answer)
	target.Listen(80, answer)
	answered := 0
	flows := func(count int) {
		for i := 0; i < count; i++ {
			c := inmate.Dial(targetIP, 80)
			c.OnConnect = func() { c.Write([]byte("GET /bot.exe HTTP/1.1\r\n\r\n")) }
			c.OnData = func([]byte) {
				answered++
				c.Close()
			}
			s.RunFor(2 * time.Second)
		}
	}
	flows(50)
	frames := netsim.FramesOf(s)
	misses, before := frames.Misses(), answered
	const count = 1000
	flows(count)
	if got := answered - before; got != count {
		t.Fatalf("%d of %d flows answered", got, count)
	}
	if got := frames.Misses() - misses; got != 0 {
		t.Errorf("%d flows made %d frame buffers the list did not have, want 0", count, got)
	}
}
