package farm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/report"
	"gq/internal/trace"
)

// TestTelemetryMatchesTrace is the ground-truth cross-check for the obs
// registry: it records the Botfarm demo's packet trace, then independently re-derives flow and verdict totals from the
// pcap bytes (internal/report's trace audit) and demands exact agreement
// with the counters the datapath bumped while running. Any drift means a
// hot-path instrumentation site was lost or double-counted.
func TestTelemetryMatchesTrace(t *testing.T) {
	f, sf := buildBotfarm(t, 1, 0.35)

	var pcap bytes.Buffer
	tw := trace.NewWriter(&pcap)
	sf.Router.AddTap(func(p *netstack.Packet) {
		if err := tw.WritePacket(f.Sim.WallClock(), p.Marshal()); err != nil {
			t.Errorf("trace write: %v", err)
		}
	})

	for i := 0; i < 4; i++ {
		if _, err := sf.AddInmate(fmt.Sprintf("inmate-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot concurrently with the running sim — the registry advertises
	// this as safe, and with -race on this package the claim is checked.
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = f.Sim.Obs().Snapshot()
			}
		}
	}()

	f.Run(30 * time.Minute)
	for _, fi := range sf.Inmates {
		fi.Terminate()
	}
	f.Run(3 * time.Minute)
	close(stop)
	<-snapDone

	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := trace.Read(&pcap)
	if err != nil {
		t.Fatal(err)
	}
	csIPs := make([]netstack.Addr, 0, len(sf.CSCluster))
	for _, srv := range sf.CSCluster {
		csIPs = append(csIPs, srv.Host.Addr())
	}
	audit := report.AuditTrace(recs, ContainmentPort, csIPs...)
	t.Logf("trace audit: %s over %d records", audit.String(), len(recs))

	snap := f.Sim.Obs().Snapshot()
	created := snap.Counter("subfarm.Botfarm.flows_created")
	verdicts := snap.Counter("subfarm.Botfarm.verdicts_applied")
	if created == 0 {
		t.Fatal("no flows created — demo run produced no traffic")
	}
	if audit.FlowsCreated != created {
		t.Errorf("flows: trace derives %d, registry counted %d", audit.FlowsCreated, created)
	}
	if audit.Verdicts != verdicts {
		t.Errorf("verdicts: trace derives %d, registry counted %d", audit.Verdicts, verdicts)
	}

	// The reporter's own cross-check walks per-flow analyzer state against
	// the same counters and must agree too.
	if problems := f.Reporter(false).CrossCheck(); len(problems) != 0 {
		t.Errorf("reporter cross-check: %v", problems)
	}
}
