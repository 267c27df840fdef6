package dnsx

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
		ID: 0xbeef, Response: true, Name: "cc.steephost.net",
		Answers: []netstack.Addr{netstack.MustParseAddr("50.8.207.91")},
		TTL:     300,
	}
	d, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != m.ID || !d.Response || d.Name != m.Name || len(d.Answers) != 1 ||
		d.Answers[0] != m.Answers[0] || d.TTL != 300 {
		t.Fatalf("round trip %+v", d)
	}
}

func TestNameCaseFolding(t *testing.T) {
	m := &Message{ID: 1, Name: "C2.Example.COM"}
	d, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "c2.example.com" {
		t.Fatalf("name %q", d.Name)
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

func dnsNet(t *testing.T, zones map[string]netstack.Addr) (*sim.Simulator, *host.Host) {
	t.Helper()
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw")
	srvHost := host.New(s, "dns", netstack.MAC{2, 0, 0, 0, 0, 3})
	client := host.New(s, "client", netstack.MAC{2, 0, 0, 0, 0, 4})
	netsim.Connect(sw.AddAccessPort("dns", 10), srvHost.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("client", 10), client.NIC(), 0)
	srvHost.ConfigureStatic(netstack.MustParseAddr("10.0.0.3"), 24, 0)
	client.ConfigureStatic(netstack.MustParseAddr("10.0.0.4"), 24, 0)
	if _, err := NewServer(srvHost, zones); err != nil {
		t.Fatal(err)
	}
	return s, client
}

func TestResolve(t *testing.T) {
	cc := netstack.MustParseAddr("50.8.207.91")
	s, client := dnsNet(t, map[string]netstack.Addr{"cc.steephost.net": cc})
	// The name the server was asked, as its answer echoes it.
	var answered []string
	client.AddRxHook(func(p *netstack.Packet) {
		if p.UDP == nil || p.UDP.SrcPort != Port {
			return
		}
		if m, err := Unmarshal(p.Payload); err == nil && m.Response {
			answered = append(answered, m.Name)
		}
	})
	var got []netstack.Addr
	var ok bool
	Resolve(client, netstack.MustParseAddr("10.0.0.3"), "CC.SteepHost.Net",
		func(a []netstack.Addr, o bool) { got, ok = a, o })
	s.RunFor(time.Minute)
	if !ok || len(got) != 1 || got[0] != cc {
		t.Fatalf("resolve got %v ok=%v", got, ok)
	}
	if len(answered) != 1 || answered[0] != "cc.steephost.net" {
		t.Errorf("answers name %q, want one for cc.steephost.net", answered)
	}
}

func TestNXDomain(t *testing.T) {
	s, client := dnsNet(t, nil)
	// The rcodes the server answered with.
	var rcodes []uint8
	client.AddRxHook(func(p *netstack.Packet) {
		if p.UDP == nil || p.UDP.SrcPort != Port {
			return
		}
		if m, err := Unmarshal(p.Payload); err == nil && m.Response {
			rcodes = append(rcodes, m.Rcode)
		}
	})
	calls := 0
	var ok bool
	Resolve(client, netstack.MustParseAddr("10.0.0.3"), "dga-a8f2k.biz",
		func(a []netstack.Addr, o bool) { calls++; ok = o })
	s.RunFor(time.Minute)
	if calls != 1 || ok {
		t.Fatalf("calls=%d ok=%v", calls, ok)
	}
	if len(rcodes) != 1 || rcodes[0] != RcodeNXDomain {
		t.Errorf("rcodes %v, want one NXDOMAIN", rcodes)
	}
}

func TestWildcard(t *testing.T) {
	sink := netstack.MustParseAddr("10.3.0.9")
	s, client := dnsNet(t, map[string]netstack.Addr{"*.spamdomain.com": sink})
	var got []netstack.Addr
	Resolve(client, netstack.MustParseAddr("10.0.0.3"), "mx1.deep.spamdomain.com",
		func(a []netstack.Addr, o bool) { got = a })
	s.RunFor(time.Minute)
	if len(got) != 1 || got[0] != sink {
		t.Fatalf("wildcard got %v", got)
	}
}

func TestResolveTimeout(t *testing.T) {
	s, client := dnsNet(t, nil)
	calls := 0
	var ok bool
	// Query a server address that does not exist.
	Resolve(client, netstack.MustParseAddr("10.0.0.99"), "x.com",
		func(a []netstack.Addr, o bool) { calls++; ok = o })
	s.RunFor(time.Minute)
	if calls != 1 || ok {
		t.Fatalf("timeout path calls=%d ok=%v", calls, ok)
	}
}
