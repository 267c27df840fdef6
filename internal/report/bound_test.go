package report

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

// dropAll is a containment policy that drops every flow.
type dropAll struct{}

func (dropAll) Name() string { return "DropAll" }
func (dropAll) Decide(*shim.Request) containment.Decision {
	return containment.Decision{Verdict: shim.Drop, Annotation: "drop"}
}

// maxClosedRecords mirrors internal/gateway's bound on the closed flows'
// records Router.Records returns.
const maxClosedRecords = 1024

// TestRecordsAndFoldStayBounded drives 10^5 flows through one router — an
// inmate opens one every 2 ms, each dropped by the containment server and
// lingering 5 s, so about 2,500 are live and none is shed —
// and holds the router's records to its live flows plus the constant, and
// the fold's per-flow state to the live flows, while the fold still counts
// every flow.
func TestRecordsAndFoldStayBounded(t *testing.T) {
	const flows = 100_000
	s := sim.New(1)
	fold := NewFold()
	s.Obs().Journal.Follow(fold)
	gw := gateway.New(s)
	sw := netsim.NewSwitch(s, "inmate-sw")
	netsim.Connect(sw.AddTrunkPort("uplink"), gw.Trunk(), 0)
	csIP := netstack.MustParseAddr("10.3.0.1")
	r := gw.AddRouterIn(s, gateway.RouterConfig{
		Name:   "bound",
		VLANLo: 10, VLANHi: 30,
		ServiceVLANs:       []uint16{2},
		InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:           netstack.MustParseAddr("10.0.0.1"),
		ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP:    netstack.MustParseAddr("10.3.0.254"),
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
		GlobalPoolStart:    16,
		ContainmentCluster: []gateway.ContainmentEndpoint{{VLAN: 2, IP: csIP, Port: 6666}},
		NonceIP:            netstack.MustParseAddr("10.4.0.1"),
	})
	csHost := host.New(s, "cs", netstack.MAC{2, 0, 0, 0, 1, 1})
	netsim.Connect(sw.AddAccessPort("cs", 2), csHost.NIC(), 0)
	csHost.ConfigureStatic(csIP, 16, netstack.MustParseAddr("10.3.0.254"))
	cs, err := containment.NewServer(csHost, 6666, netstack.MustParseAddr("10.4.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	cs.SetFallback(dropAll{})
	inmate := host.New(s, "inmate", netstack.MAC{2, 0, 0, 0, 1, 2})
	netsim.Connect(sw.AddAccessPort("inmate", 16), inmate.NIC(), 0)
	inmate.ConfigureStatic(netstack.MustParseAddr("10.0.0.23"), 16, netstack.MustParseAddr("10.0.0.1"))

	target := netstack.MustParseAddr("203.0.113.80")
	opened, maxLive := 0, 0
	var tick *sim.Ticker
	tick = s.Every(2*time.Millisecond, func() {
		if opened == flows {
			tick.Stop()
			return
		}
		inmate.Dial(target, uint16(1000+opened%50000))
		opened++
		if opened%1000 != 0 {
			return
		}
		live := r.ActiveFlows()
		maxLive = max(maxLive, live)
		if n := len(r.Records()); n > live+maxClosedRecords {
			t.Fatalf("after %d flows: %d records for %d live flows", opened, n, live)
		}
		if n := len(fold.scope("bound").live); n > live {
			t.Fatalf("after %d flows: the fold holds %d live flows, the router %d", opened, n, live)
		}
	})
	s.RunFor(flows*2*time.Millisecond + time.Minute)

	if opened != flows {
		t.Fatalf("opened %d flows, want %d", opened, flows)
	}
	if got := r.FlowsCreated.Value(); got < flows {
		t.Fatalf("router created %d flows, want at least %d", got, flows)
	}
	if got := fold.Flows("bound", func(FlowClass) bool { return true }); uint64(got) != r.FlowsCreated.Value() {
		t.Fatalf("fold counts %d flows, router created %d", got, r.FlowsCreated.Value())
	}
	if n := len(fold.scope("bound").live); n != 0 {
		t.Fatalf("the fold still holds %d live flows after the drain", n)
	}
	t.Logf("%d flows, at most %d live at once", flows, maxLive)
}
