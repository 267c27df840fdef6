package experiments

import (
	"strings"
	"testing"
	"time"

	"gq/internal/malware"
)

func TestRunTable1Subset(t *testing.T) {
	// One fast and one slow capture: the measured shape must match.
	specs := []malware.WormSpec{}
	for _, w := range malware.Table1 {
		if (w.Name == "W32.Korgo.V" && w.Events == 102) || w.Executable == "MsUpdaters.exe" {
			specs = append(specs, w)
		}
	}
	rows, text, err := RunTable1(1, specs, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	korgo, spybot := rows[0], rows[1]
	if korgo.Spec.Name != "W32.Korgo.V" {
		korgo, spybot = spybot, korgo
	}
	if korgo.MeasuredEvents < 2 || spybot.MeasuredEvents < 2 {
		t.Fatalf("events korgo=%d spybot=%d", korgo.MeasuredEvents, spybot.MeasuredEvents)
	}
	if korgo.MeasuredIncub >= spybot.MeasuredIncub {
		t.Fatalf("incubation ordering: korgo %v >= spybot %v",
			korgo.MeasuredIncub, spybot.MeasuredIncub)
	}
	// Connections per infection should track the spec (2 vs 5).
	if korgo.MeasuredConnsPer < 1.5 || korgo.MeasuredConnsPer > 2.5 {
		t.Fatalf("korgo conns/infection %.1f, spec 2", korgo.MeasuredConnsPer)
	}
	if spybot.MeasuredConnsPer < 4 || spybot.MeasuredConnsPer > 6 {
		t.Fatalf("spybot conns/infection %.1f, spec 5", spybot.MeasuredConnsPer)
	}
	for _, want := range []string{"EXECUTABLE", "W32.Korgo.V", "MsUpdaters.exe"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}

func TestRunFigure2AllModes(t *testing.T) {
	results, text, err := RunFigure2(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d modes", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("mode %s failed: %s", r.Mode, r.Observed)
		}
	}
	if !strings.Contains(text, "(f) Rewrite") {
		t.Errorf("rendering:\n%s", text)
	}
}

func TestRunFigure5(t *testing.T) {
	out, text, err := RunFigure5(3)
	if err != nil {
		t.Fatal(err)
	}
	// The rendered trace annotates each step of the flow it saw.
	if !strings.Contains(text, "<= REQ SHIM injected") {
		t.Error("request shim not visible in the trace")
	}
	if !strings.Contains(text, "<= original request riding bumped sequence numbers") {
		t.Error("sequence-bumped original request not visible in the trace")
	}
	if !strings.Contains(text, "<= rewritten request forwarded") {
		t.Error("rewritten leg-2 request not visible upstream")
	}
	if !strings.Contains(out.InmateGot, "404 NOT FOUND") {
		t.Errorf("inmate got %q", out.InmateGot)
	}
	if !strings.Contains(out.TargetSaw, "GET /cleanup.exe") {
		t.Errorf("target saw %q", out.TargetSaw)
	}
	if !strings.Contains(text, "REQ SHIM") {
		t.Errorf("rendering:\n%s", text)
	}
}

func TestRunFigure7(t *testing.T) {
	out, err := RunFigure7(Figure7Config{Seed: 4, Duration: 45 * time.Minute, DropProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Rustock", "Grum", "REFLECT", "REWRITE", "autoinfection"} {
		if !strings.Contains(out.Report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The Fig. 7 shape: reflected flows exceed completed sessions when the
	// sink drops probabilistically; DATA/session ratios differ per family.
	if out.ReflectedSMTPFlows == 0 || out.SMTPSessions == 0 {
		t.Fatalf("flows=%d sessions=%d", out.ReflectedSMTPFlows, out.SMTPSessions)
	}
	if uint64(out.ReflectedSMTPFlows) <= out.SMTPSessions {
		t.Fatalf("flows=%d should exceed sessions=%d under a dropping sink",
			out.ReflectedSMTPFlows, out.SMTPSessions)
	}
}

func TestRunScalabilityGateway(t *testing.T) {
	pts, text, err := RunScalabilityGateway(5, [][2]int{{1, 2}, {3, 2}}, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// More subfarms means more adjudicated flows on the one gateway.
	if pts[1].FlowsAdjudicated <= pts[0].FlowsAdjudicated {
		t.Fatalf("scaling shape: %d !> %d", pts[1].FlowsAdjudicated, pts[0].FlowsAdjudicated)
	}
	if !strings.Contains(text, "subfarms") {
		t.Errorf("rendering:\n%s", text)
	}
}

func TestRunScalabilityCluster(t *testing.T) {
	pts, text, err := RunScalabilityCluster(6, []int{1, 3}, 6, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	single, cluster := pts[0], pts[1]
	if single.FlowsAdjudicated == 0 || cluster.FlowsAdjudicated == 0 {
		t.Fatalf("no flows adjudicated: %+v", pts)
	}
	// The cluster splits the load: the busiest member handles materially
	// fewer flows than the lone server did.
	if cluster.PerServerMax >= single.PerServerMax {
		t.Fatalf("cluster max %d !< single max %d", cluster.PerServerMax, single.PerServerMax)
	}
	if !strings.Contains(text, "servers") {
		t.Errorf("rendering:\n%s", text)
	}
}

func TestRunScalabilityVLANPool(t *testing.T) {
	n, text := RunScalabilityVLANPool()
	if n != 4094 {
		t.Fatalf("pool size %d, want 4094 (802.1Q)", n)
	}
	if !strings.Contains(text, "4094") {
		t.Errorf("rendering: %s", text)
	}
}
