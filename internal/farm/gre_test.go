package farm

import (
	"testing"
	"time"

	"gq/internal/gateway"
	"gq/internal/malware"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/smtpx"
)

// TestGREGraftedAddressSpaceInFarm: a subfarm whose primary pool holds one
// usable address runs two spambots; the second inmate's global binding
// spills into GRE-tunnelled space contributed by a peer router, and its
// C&C lifeline works end to end through the tunnel.
func TestGREGraftedAddressSpaceInFarm(t *testing.T) {
	f := New(88)
	tunnel := gateway.GRETunnel{
		LocalAddr: netstack.MustParseAddr("192.0.2.2"),
		PeerAddr:  netstack.MustParseAddr("198.51.100.254"),
		ExtraPool: netstack.MustParsePrefix("203.0.114.0/24"),
		PoolStart: 16,
	}
	peer := gateway.NewGREPeer(f.Sim, tunnel)
	netsim.Connect(f.InternetSwitch.AddAccessPort("grepeer", 100), peer.Port(), 0)

	ccAddr := netstack.MustParseAddr("50.8.207.91")
	cc := f.AddExternalHost("cc", ccAddr)
	hellos := heard(cc, 443, "HELLO")
	_, err := malware.NewCCServer(cc, malware.CCConfig{
		Template: "x", Targets: []netstack.Addr{netstack.MustParseAddr("203.0.113.25")},
	})
	if err != nil {
		t.Fatal(err)
	}

	sf, err := f.AddSubfarm(SubfarmConfig{
		Name:   "grefarm",
		VLANLo: 16, VLANHi: 20,
		ServiceVLAN: 11,
		// /28 with start 16 is ALREADY exhausted: every binding tunnels.
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/28"),
		GRETunnels:   []gateway.GRETunnel{tunnel},
		PolicyConfig: "[VLAN 16-20]\nDecider = Rustock\nInfection = *.exe\n",
		SampleLibrary: []*policy.Sample{
			policy.NewSample("bot.exe", "rustock", []byte("MZ")),
		},
		RepeatBatches:  true,
		CCHosts:        map[string]policy.AddrPort{"Rustock": {Addr: ccAddr, Port: 443}},
		SinkStrictness: smtpx.Lenient,
	})
	if err != nil {
		t.Fatal(err)
	}
	bot, err := sf.AddInmate("tunnelled-bot")
	if err != nil {
		t.Fatal(err)
	}
	f.Run(15 * time.Minute)

	b := sf.Router.NAT().ByVLAN(bot.VLAN)
	if b == nil || !tunnel.ExtraPool.Contains(b.Global) {
		t.Fatalf("binding %+v not in tunnelled pool", b)
	}
	if bot.Family != "rustock" {
		t.Fatalf("inmate never infected (family %q)", bot.Family)
	}
	// The C&C lifeline crossed the tunnel in both directions.
	if *hellos == 0 {
		t.Fatal("C&C never heard from the tunnelled bot")
	}
	if tx, rx := f.Gateway.GRETx.Value(), f.Gateway.GRERx.Value(); tx == 0 || rx == 0 {
		t.Fatalf("tunnel idle: tx=%d rx=%d", tx, rx)
	}
	// Spam stayed contained regardless of addressing.
	if sf.SMTPSink.DataTransfers == 0 {
		t.Fatal("no contained spam harvested")
	}
}
