package dhcp

import (
	"testing"
	"testing/quick"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Op: OpRequest, XID: 0xdeadbeef, Flags: BroadcastFlag,
		CHAddr: netstack.MAC{2, 0, 0, 0, 0, 9},
		YIAddr: netstack.MustParseAddr("10.0.0.23"),
	}
	m.SetType(Discover)
	m.SetAddrOption(OptRequestedIP, netstack.MustParseAddr("10.0.0.23"))
	d, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if d.XID != m.XID || d.Type() != Discover || d.CHAddr != m.CHAddr || d.YIAddr != m.YIAddr {
		t.Fatalf("round trip %+v", d)
	}
	if got, ok := d.AddrOption(OptRequestedIP); !ok || got != m.YIAddr {
		t.Fatalf("requested IP %v %v", got, ok)
	}
}

func TestUnmarshalRejectsJunk(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Unmarshal(make([]byte, 300)); err == nil {
		t.Error("zero bytes accepted (bad cookie)")
	}
	m := (&Message{Op: OpRequest}).Marshal()
	m[1] = 9 // htype
	if _, err := Unmarshal(m); err == nil {
		t.Error("bad htype accepted")
	}
}

func TestPropertyUnmarshalNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// farmNet wires a DHCP server and n clients onto one broadcast segment.
func farmNet(t *testing.T, s *sim.Simulator, n int) (*Server, []*host.Host) {
	t.Helper()
	sw := netsim.NewSwitch(s, "sw")
	srvHost := host.New(s, "dhcp", netstack.MAC{2, 0, 0, 0, 0, 100})
	netsim.Connect(sw.AddAccessPort("dhcp", 10), srvHost.NIC(), 0)
	srvHost.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 16, 0)
	srv, err := NewServer(srvHost, ServerConfig{
		Pool:       netstack.MustParsePrefix("10.0.0.0/16"),
		PoolStart:  16,
		Router:     netstack.MustParseAddr("10.0.0.1"),
		DNS:        netstack.MustParseAddr("10.0.0.3"),
		SubnetBits: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var clients []*host.Host
	for i := 0; i < n; i++ {
		h := host.New(s, "inmate", netstack.MAC{2, 0, 0, 0, 1, byte(i)})
		netsim.Connect(sw.AddAccessPort("c", 10), h.NIC(), 0)
		clients = append(clients, h)
	}
	return srv, clients
}

func TestClientObtainsLease(t *testing.T) {
	s := sim.New(1)
	srv, clients := farmNet(t, s, 1)
	// The test's own view of the exchange: the DHCPACKs the client's host
	// receives.
	acks := 0
	clients[0].AddRxHook(func(p *netstack.Packet) {
		if p.UDP == nil || p.UDP.DstPort != ClientPort {
			return
		}
		if m, err := Unmarshal(p.Payload); err == nil && m.Type() == Ack {
			acks++
		}
	})
	var bound netstack.Addr
	RunClient(clients[0], func(a netstack.Addr) { bound = a })
	s.RunFor(time.Minute)
	if bound == 0 {
		t.Fatal("client never bound")
	}
	h := clients[0]
	if h.Addr() != bound || h.DNS() != netstack.MustParseAddr("10.0.0.3") {
		t.Fatalf("config addr=%v dns=%v", h.Addr(), h.DNS())
	}
	// The leased router is where the client sends off-subnet traffic: a
	// datagram to 192.0.2.1 makes it ask the segment for 10.0.0.1.
	var asked netstack.Addr
	srv.h.AddRxHook(func(p *netstack.Packet) {
		if p.ARP != nil && p.ARP.Op == netstack.ARPRequest && p.ARP.SenderIP == bound {
			asked = p.ARP.TargetIP
		}
	})
	sock, err := h.ListenUDP(0, func(netstack.Addr, uint16, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(netstack.MustParseAddr("192.0.2.1"), 9, []byte("off-subnet"))
	s.RunFor(time.Second)
	if asked != netstack.MustParseAddr("10.0.0.1") {
		t.Errorf("client resolved %v for off-subnet traffic, want its router 10.0.0.1", asked)
	}
	if acks != 1 {
		t.Errorf("client received %d DHCPACKs, want 1", acks)
	}
}

func TestManyClientsGetDistinctAddresses(t *testing.T) {
	s := sim.New(2)
	_, clients := farmNet(t, s, 20)
	for _, c := range clients {
		RunClient(c, nil)
	}
	s.RunFor(time.Minute)
	seen := map[netstack.Addr]bool{}
	for _, c := range clients {
		if c.Addr() == 0 {
			t.Fatal("a client failed to bind")
		}
		if seen[c.Addr()] {
			t.Fatalf("duplicate address %v", c.Addr())
		}
		seen[c.Addr()] = true
	}
}

func TestLeaseStableAcrossRequests(t *testing.T) {
	s := sim.New(1)
	srv, clients := farmNet(t, s, 1)
	RunClient(clients[0], nil)
	s.RunFor(time.Minute)
	first := clients[0].Addr()
	// Same MAC rebooting gets the same address.
	clients[0].Reset()
	RunClient(clients[0], nil)
	s.RunFor(time.Minute)
	if clients[0].Addr() != first {
		t.Fatalf("address changed across reboot: %v -> %v", first, clients[0].Addr())
	}
	// After release, the address can go to someone else.
	srv.ReleaseMAC(clients[0].MAC())
	if len(srv.leases) != 0 {
		t.Error("lease not released")
	}
}

func TestClientRetriesWhenServerSlow(t *testing.T) {
	s := sim.New(1)
	// No server at all for 10s, then attach one.
	sw := netsim.NewSwitch(s, "sw")
	h := host.New(s, "inmate", netstack.MAC{2, 0, 0, 0, 1, 1})
	netsim.Connect(sw.AddAccessPort("c", 10), h.NIC(), 0)
	RunClient(h, nil)
	s.RunFor(10 * time.Second)
	if h.Addr() != 0 {
		t.Fatal("bound without server")
	}
	srvHost := host.New(s, "dhcp", netstack.MAC{2, 0, 0, 0, 0, 100})
	netsim.Connect(sw.AddAccessPort("dhcp", 10), srvHost.NIC(), 0)
	srvHost.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 16, 0)
	if _, err := NewServer(srvHost, ServerConfig{
		Pool: netstack.MustParsePrefix("10.0.0.0/16"), PoolStart: 16, SubnetBits: 16,
	}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Minute)
	if h.Addr() == 0 {
		t.Fatal("client never recovered after server appeared")
	}
}

func TestPoolExhaustion(t *testing.T) {
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw")
	srvHost := host.New(s, "dhcp", netstack.MAC{2, 0, 0, 0, 0, 100})
	netsim.Connect(sw.AddAccessPort("dhcp", 10), srvHost.NIC(), 0)
	srvHost.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 29, 0)
	// /29 = 8 addresses, PoolStart 5 → indices 5,6 usable (7 is broadcast).
	if _, err := NewServer(srvHost, ServerConfig{
		Pool: netstack.MustParsePrefix("10.0.0.0/29"), PoolStart: 5, SubnetBits: 29,
	}); err != nil {
		t.Fatal(err)
	}
	var hosts []*host.Host
	for i := 0; i < 4; i++ {
		h := host.New(s, "c", netstack.MAC{2, 0, 0, 0, 2, byte(i)})
		netsim.Connect(sw.AddAccessPort("c", 10), h.NIC(), 0)
		hosts = append(hosts, h)
		RunClient(h, nil)
	}
	s.RunFor(30 * time.Second)
	bound := 0
	for _, h := range hosts {
		if h.Addr() != 0 {
			bound++
		}
	}
	if bound != 2 {
		t.Fatalf("bound %d clients from a 2-address pool", bound)
	}
}
