package ops_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gq/internal/farm"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/ops"
	"gq/internal/policy"
	"gq/internal/smtpx"
	"gq/internal/supervisor"
)

const testPolicy = "[VLAN 16-17]\n" +
	"Decider = Rustock\nInfection = rustock.100921.*.exe\n\n" +
	"[VLAN 18-19]\n" +
	"Decider = Grum\nInfection = grum.100818.*.exe\n"

// buildFarm assembles the unsharded Botfarm demo with an NDJSON journal
// capture, ready for serving.
func buildFarm(t *testing.T, seed int64) (*farm.Farm, *farm.Subfarm, *bytes.Buffer, *obs.NDJSONSink) {
	t.Helper()
	f := farm.New(seed)
	var journal bytes.Buffer
	sink := f.Sim.Obs().Journal.AttachNDJSON(&journal)

	ccAddr := netstack.MustParseAddr("50.8.207.91")
	ccHost := f.AddExternalHost("cc", ccAddr)
	if _, err := malware.NewCCServer(ccHost, malware.CCConfig{Template: "pharma special"}); err != nil {
		t.Fatal(err)
	}
	sf, err := f.AddSubfarm(farm.SubfarmConfig{
		Name:   "Botfarm",
		VLANLo: 16, VLANHi: 24,
		ServiceVLAN:  11,
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig: testPolicy,
		SampleLibrary: []*policy.Sample{
			policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-r")),
			policy.NewSample("grum.100818.001.exe", "grum", []byte("MZ-g")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock": {Addr: ccAddr, Port: 443},
			"Grum":    {Addr: ccAddr, Port: 80},
		},
		SinkDropProb:   0.2,
		SinkStrictness: smtpx.Lenient,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sf.AddInmate(fmt.Sprintf("bot-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return f, sf, &journal, sink
}

// serveFarm interposes a fanout, starts the soak driver and an httptest
// ops server, and registers cleanup. speed is the virtual:wall ratio.
func serveFarm(t *testing.T, f *farm.Farm, speed float64) (*httptest.Server, *ops.Driver, *obs.Fanout) {
	t.Helper()
	j := f.Sim.Obs().Journal
	fan := obs.NewFanout(j.Sink())
	j.SetSink(fan)
	d := ops.NewDriver(f.Sim, speed)
	srv, err := ops.NewServer(ops.Config{Farm: f, Fanout: fan, Driver: d})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	go d.Run()
	t.Cleanup(func() { d.Stop(); ts.Close() })
	return ts, d, fan
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitSim blocks until the served farm's virtual clock passes target.
func waitSim(t *testing.T, d *ops.Driver, target time.Duration) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for d.Now() < target {
		if time.Now().After(deadline) {
			t.Fatalf("sim stuck at %v waiting for %v", d.Now(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeEndToEnd drives the full ops surface against one served soak:
// health, both metrics formats, SSE streaming, flight listings, and the
// three control verbs, each of which must land in the journal.
func TestServeEndToEnd(t *testing.T) {
	f, _, journal, sink := buildFarm(t, 7)
	ts, d, _ := serveFarm(t, f, 2400) // 2 virtual minutes per wall second

	// Health comes up OK (no supervisor attached, nothing unhealthy).
	var health struct {
		Status    string `json:"status"`
		SimTimeNS int64  `json:"sim_time_ns"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}

	// Let the inmates boot and start emitting.
	waitSim(t, d, 2*time.Minute)

	// Metrics: prom is the endpoint default, json round-trips, text renders,
	// junk is rejected.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := readAll(resp)
	if resp.StatusCode != 200 || !strings.Contains(prom, "# TYPE gq_sim_time_seconds gauge") {
		t.Fatalf("prom metrics: %d %.120s", resp.StatusCode, prom)
	}
	if !strings.Contains(prom, "gq_subfarm_Botfarm_flows_created") {
		t.Fatalf("prom metrics missing farm counters:\n%.400s", prom)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != 200 || len(snap.Counters) == 0 {
		t.Fatalf("json metrics: %d %d counters", code, len(snap.Counters))
	}
	resp, err = http.Get(ts.URL + "/metrics?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad format answered %d", resp.StatusCode)
	}

	// SSE: an unfiltered subscriber sees journal events as data lines.
	sawData := readSSE(t, ts.URL+"/events?buf=4096", 1, 10*time.Second)
	if len(sawData) == 0 || !strings.HasPrefix(sawData[0], "{\"t_ns\":") {
		t.Fatalf("SSE data lines: %q", sawData)
	}

	// Flights: listing answers (empty or not) with the eviction counter.
	var flights struct {
		Dumps   []map[string]any `json:"dumps"`
		Evicted uint64           `json:"evicted"`
	}
	if code := getJSON(t, ts.URL+"/flights", &flights); code != 200 {
		t.Fatalf("flights: %d", code)
	}

	// Control: swap VLAN 16-17 to HardDeny, inject + stop chaos, revert an
	// inmate. Each answers 200 synchronously.
	if code := postJSON(t, ts.URL+"/policy",
		map[string]any{"subfarm": "Botfarm", "lo": 16, "hi": 17, "policy": "HardDeny"}, nil); code != 200 {
		t.Fatalf("policy swap: %d", code)
	}
	if code := postJSON(t, ts.URL+"/policy",
		map[string]any{"lo": 16, "hi": 17, "policy": "NoSuchPolicy"}, nil); code != 422 {
		t.Fatalf("unknown policy answered %d", code)
	}
	if code := postJSON(t, ts.URL+"/chaos",
		map[string]any{"subfarm": "Botfarm", "spec": "light,flapevery=1ns"}, nil); code != 400 {
		t.Fatalf("unrunnable chaos spec answered %d", code)
	}
	if code := postJSON(t, ts.URL+"/chaos",
		map[string]any{"subfarm": "Botfarm", "spec": "loss=0.05"}, nil); code != 200 {
		t.Fatalf("chaos inject: %d", code)
	}
	if code := postJSON(t, ts.URL+"/chaos",
		map[string]any{"subfarm": "Botfarm", "spec": "loss=0.10"}, nil); code != 422 {
		t.Fatalf("double chaos inject answered %d", code)
	}
	if code := postJSON(t, ts.URL+"/chaos",
		map[string]any{"subfarm": "Botfarm", "stop": true}, nil); code != 200 {
		t.Fatalf("chaos stop: %d", code)
	}
	if code := postJSON(t, ts.URL+"/quarantine/16",
		map[string]any{"action": "revert"}, nil); code != 200 {
		t.Fatalf("quarantine: %d", code)
	}
	if code := postJSON(t, ts.URL+"/quarantine/99",
		map[string]any{"action": "revert"}, nil); code != 422 {
		t.Fatalf("quarantine of unknown VLAN answered %d", code)
	}

	// Verify the swap dispatches: flows adjudicated after the swap on VLANs
	// 16-17 must name HardDeny. Read sim-owned state through the driver.
	target := d.Now() + 10*time.Minute
	waitSim(t, d, target)
	var swapped bool
	err = d.Do(5*time.Second, f.Sim, func() error {
		for _, sub := range f.Subfarms {
			for _, rec := range sub.Router.Records() {
				if rec.Policy == "HardDeny" {
					swapped = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("no post-swap decision names HardDeny")
	}

	d.Stop() // idempotent with cleanup; quiesces the journal for reading
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	text := journal.String()
	for _, ev := range []string{
		`"type":"ops.policy_swap"`,
		`"type":"ops.chaos_inject"`,
		`"type":"ops.chaos_stop"`,
		`"type":"ops.quarantine"`,
	} {
		if !strings.Contains(text, ev) {
			t.Errorf("journal missing %s", ev)
		}
	}
	if !strings.Contains(text, `"detail":"HardDeny"`) {
		t.Error("policy swap journal event does not carry the policy name")
	}
}

// TestMetricsAgreeWithRegistry pins /metrics to the same registry the
// final report cross-checks: a JSON scrape after quiescing equals a direct
// snapshot, counter for counter.
func TestMetricsAgreeWithRegistry(t *testing.T) {
	f, _, _, _ := buildFarm(t, 11)
	ts, d, _ := serveFarm(t, f, 2400)
	waitSim(t, d, 5*time.Minute)
	d.Stop()

	var scraped struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &scraped); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	direct := f.Sim.Obs().Snapshot()
	if len(scraped.Counters) != len(direct.Counters) {
		t.Fatalf("scrape has %d counters, registry %d", len(scraped.Counters), len(direct.Counters))
	}
	for name, v := range direct.Counters {
		if scraped.Counters[name] != v {
			t.Fatalf("counter %s: scraped %d, registry %d", name, scraped.Counters[name], v)
		}
	}
	if direct.Counter("subfarm.Botfarm.flows_created") == 0 {
		t.Fatal("soak created no flows; the agreement check proved nothing")
	}
}

// buildShardedFarm assembles the Botfarm demo sharded: the subfarm in its
// own domain, the external hosts in the external domain.
func buildShardedFarm(t *testing.T, seed int64) (*farm.Farm, *farm.Subfarm) {
	t.Helper()
	f := farm.NewSharded(seed, 2)
	ccAddr := netstack.MustParseAddr("50.8.207.91")
	ccHost := f.AddExternalHost("cc", ccAddr)
	if _, err := malware.NewCCServer(ccHost, malware.CCConfig{Template: "pharma special"}); err != nil {
		t.Fatal(err)
	}
	sf, err := f.AddSubfarm(farm.SubfarmConfig{
		Name:   "Botfarm",
		VLANLo: 16, VLANHi: 24,
		ServiceVLAN:  11,
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig: testPolicy,
		SampleLibrary: []*policy.Sample{
			policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-r")),
			policy.NewSample("grum.100818.001.exe", "grum", []byte("MZ-g")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock": {Addr: ccAddr, Port: 443},
			"Grum":    {Addr: ccAddr, Port: 80},
		},
		SinkDropProb:   0.2,
		SinkStrictness: smtpx.Lenient,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sf.AddInmate(fmt.Sprintf("bot-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return f, sf
}

// TestServeShardedFarm: the ops plane serves a sharded farm — the soak
// loop drives the coordinator, and every control endpoint lands its action
// inside the owning domain's event loop instead of sim.Inject.
func TestServeShardedFarm(t *testing.T) {
	f, sf := buildShardedFarm(t, 3)
	ts, _, _ := serveFarm(t, f, 5000)

	// Let the soak make progress across domains.
	deadline := time.Now().Add(10 * time.Second)
	for f.Sim.ObservedNow() < 30*time.Second {
		if time.Now().After(deadline) {
			t.Fatal("sharded soak made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Policy swap runs inside the subfarm's domain.
	var reply map[string]any
	status := postJSON(t, ts.URL+"/policy",
		map[string]any{"subfarm": "Botfarm", "lo": 16, "hi": 24, "policy": "HardDeny"}, &reply)
	if status != http.StatusOK || reply["applied"] != "policy_swap" {
		t.Fatalf("policy swap on sharded farm: %d %v", status, reply)
	}

	// Chaos inject + stop run inside the subfarm's domain.
	status = postJSON(t, ts.URL+"/chaos",
		map[string]any{"subfarm": "Botfarm", "spec": "loss=0.01"}, &reply)
	if status != http.StatusOK || reply["applied"] != "chaos_inject" {
		t.Fatalf("chaos inject on sharded farm: %d %v", status, reply)
	}
	status = postJSON(t, ts.URL+"/chaos",
		map[string]any{"subfarm": "Botfarm", "stop": true}, &reply)
	if status != http.StatusOK || reply["applied"] != "chaos_stop" {
		t.Fatalf("chaos stop on sharded farm: %d %v", status, reply)
	}

	// Quarantine posts the lifecycle action across the management trunk
	// into the controller's (root) domain.
	status = postJSON(t, ts.URL+"/quarantine/16",
		map[string]any{"subfarm": "Botfarm", "action": "revert"}, &reply)
	if status != http.StatusOK || reply["applied"] != "quarantine" {
		t.Fatalf("quarantine on sharded farm: %d %v", status, reply)
	}
	// An unknown verb must be rejected before crossing domains.
	status = postJSON(t, ts.URL+"/quarantine/16",
		map[string]any{"subfarm": "Botfarm", "action": "defenestrate"}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad quarantine verb: status %d", status)
	}

	// The machines fan-out answers per subfarm (none has raw iron here).
	var machines struct {
		Machines []farm.MachineInfo `json:"machines"`
	}
	if status := getJSON(t, ts.URL+"/machines", &machines); status != http.StatusOK {
		t.Fatalf("machines on sharded farm: status %d", status)
	}

	// Shard utilization is live in /metrics.
	var metrics struct {
		Gauges   map[string]int64  `json:"gauges"`
		Counters map[string]uint64 `json:"counters"`
	}
	if status := getJSON(t, ts.URL+"/metrics?format=json", &metrics); status != http.StatusOK {
		t.Fatalf("metrics on sharded farm: status %d", status)
	}
	if metrics.Counters["sim.rounds"] == 0 {
		t.Fatal("sim.rounds counter not exported on a served sharded soak")
	}
	if _, ok := metrics.Gauges["sim.domains_busy"]; !ok {
		t.Fatal("sim.domains_busy gauge not exported on a served sharded soak")
	}
	if sf.Sim == f.Sim {
		t.Fatal("sharded subfarm shares the root domain")
	}
}

// TestDriverDoAfterStop: control actions fail fast once the soak ended.
func TestDriverDoAfterStop(t *testing.T) {
	f, _, _, _ := buildFarm(t, 3)
	d := ops.NewDriver(f.Sim, 1000)
	go d.Run()
	d.Stop()
	if err := d.Do(time.Second, f.Sim, func() error { return nil }); err != ops.ErrStopped {
		t.Fatalf("Do after Stop: %v", err)
	}
}

// readSSE reads from an SSE endpoint until n data lines or the timeout,
// returning the data payloads.
func readSSE(t *testing.T, url string, n int, timeout time.Duration) []string {
	t.Helper()
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var out []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			out = append(out, strings.TrimPrefix(line, "data: "))
			if len(out) >= n {
				break
			}
		}
	}
	return out
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	_, err := bufio.NewReader(resp.Body).WriteTo(&sb)
	return sb.String(), err
}

// TestHealthzCensusHasNoGaps: on a tree-supervised farm every watch a node
// claims is in the /healthz census, and every health gauge the registry
// holds is one a node claims — per kind, present equals expected.
func TestHealthzCensusHasNoGaps(t *testing.T) {
	f, _, _, _ := buildFarm(t, 5)
	f.SuperviseTree(supervisor.Config{})
	ts, d, _ := serveFarm(t, f, 2400)
	waitSim(t, d, time.Minute)

	var health struct {
		Status      string `json:"status"`
		Supervision map[string]struct {
			Expected int      `json:"expected"`
			Present  int      `json:"present"`
			Healthy  int      `json:"healthy"`
			Down     []string `json:"down"`
		} `json:"supervision"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	for _, kind := range []supervisor.Kind{supervisor.KindCS, supervisor.KindSink, supervisor.KindController, supervisor.KindShard} {
		if _, ok := health.Supervision[string(kind)]; !ok {
			t.Errorf("kind %q missing from the census %+v", kind, health.Supervision)
		}
	}
	for kind, kh := range health.Supervision {
		if kh.Expected == 0 || kh.Present != kh.Expected || kh.Healthy != kh.Present {
			t.Errorf("%s: expected %d, present %d, healthy %d (down %v)", kind, kh.Expected, kh.Present, kh.Healthy, kh.Down)
		}
	}
}

// A control request's body is one JSON value of at most 64 KiB: a 1 MiB
// POST /policy is refused with 413 before it is decoded, a body with data
// after its value with 400, and neither swaps anything.
func TestControlBodyIsBounded(t *testing.T) {
	f, _, journal, sink := buildFarm(t, 9)
	ts, d, _ := serveFarm(t, f, 5000)
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/policy", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	huge, _ := json.Marshal(map[string]any{
		"subfarm": "Botfarm", "lo": 16, "hi": 17, "policy": "HardDeny", "pad": strings.Repeat("x", 1<<20),
	})
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("1 MiB body answered %d, want 413", code)
	}
	if code := post([]byte(`{"subfarm":"Botfarm","lo":16,"hi":17,"policy":"HardDeny"} {}`)); code != http.StatusBadRequest {
		t.Errorf("trailing data answered %d, want 400", code)
	}
	d.Stop() // idempotent with cleanup; quiesces the journal for reading
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(journal.String(), `"type":"ops.policy_swap"`) {
		t.Error("a refused body swapped the policy")
	}
}
