package farm

import (
	"testing"
	"time"

	"gq/internal/report"
	"gq/internal/shim"
)

// TestSoak24Hours runs the Botfarm for a full virtual day — the paper's
// deployments ran for weeks — checking for long-horizon pathologies: flow
// table leaks, trigger storms, stalled specimens, report rotation drift.
func TestSoak24Hours(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	f, sf := buildBotfarm(t, 99, 0.35)
	for i := 0; i < 4; i++ {
		if _, err := sf.AddInmate("bot"); err != nil {
			t.Fatal(err)
		}
	}
	// Hourly reports, as Bro's log rotation drove them.
	rep := f.Reporter(true)
	var reports []string
	f.Sim.Every(time.Hour, func() { reports = append(reports, rep.Generate()) })

	f.Run(24 * time.Hour)

	// Specimens stayed productive across the whole day.
	if sf.SMTPSink.DataTransfers < 1000 {
		t.Fatalf("only %d DATA transfers in 24h", sf.SMTPSink.DataTransfers)
	}
	// Hourly rotation produced a report per hour.
	if len(reports) != 24 {
		t.Fatalf("%d rotated reports, want 24", len(reports))
	}
	// Flow table stays bounded: active entries should be a handful of
	// live C&C/spam flows, never accumulation.
	if n := sf.Router.ActiveFlows(); n > 50 {
		t.Fatalf("flow table grew to %d entries", n)
	}
	// No specimen wedged: every inmate is running and infected.
	for vlan, fi := range sf.Inmates {
		if fi.State.String() != "running" {
			t.Fatalf("inmate on VLAN %d stuck in %v", vlan, fi.State)
		}
		if fi.Specimen == nil {
			t.Fatalf("inmate on VLAN %d lost its specimen", vlan)
		}
	}
	// Triggers did not storm: active spambots must never be reverted by
	// the absence rule.
	if n := f.Sim.Obs().Reg.Counter("cs.triggers_fired").Value(); n > 0 {
		t.Fatalf("absence trigger fired %d times against active spambots", n)
	}
	// Verdict accounting stayed consistent end to end: every flow the
	// journal saw adjudicated is one verdict applied.
	adjudicated := f.Fold.Flows(sf.Name, func(c report.FlowClass) bool { return c.Verdict != 0 })
	if uint64(adjudicated) != sf.Router.VerdictsApplied.Value() {
		t.Fatalf("flows with verdicts %d != verdicts applied %d",
			adjudicated, sf.Router.VerdictsApplied.Value())
	}
	// Safety: no flow ever FORWARDed SMTP.
	if n := f.Fold.Flows(sf.Name, func(c report.FlowClass) bool {
		return c.Port == 25 && c.Verdict.Has(shim.Forward)
	}); n != 0 {
		t.Fatalf("%d SMTP flows forwarded", n)
	}
}
