package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFailingRunFlushesJournal is the regression test for the truncated-
// journal bug: a run that exits non-zero used to os.Exit past the deferred
// NDJSON flush, truncating the tail of the event stream. The journal of a
// failing run must be complete and parseable — failures are exactly when
// the journal matters most. The run is made to fail deterministically: a
// containment-server crash at 5m with a 20m restore window and a 1ns
// drain leaves stranded flows in the gateway table at the health check.
func TestFailingRunFlushesJournal(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "run.ndjson")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-duration", "15m", "-drain", "1ns", "-inmates", "2",
		"-chaos", "crash,cscrash=5m,csdownfor=20m",
		"-events", events, "-flight-dir", dir,
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "FAILED") {
		t.Fatalf("failure diagnostic missing from stderr: %s", errOut.String())
	}

	b, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	// The NDJSON sink buffers 4KiB; anything shorter would not prove the
	// buffered tail survived the failure exit.
	if len(b) < 4096 {
		t.Fatalf("journal only %d bytes — not enough to exercise the buffered tail", len(b))
	}
	if b[len(b)-1] != '\n' {
		t.Fatal("journal does not end in a newline: truncated mid-event")
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("journal line %d/%d is not valid JSON: %.120q", i+1, len(lines), line)
		}
	}
}

// TestShardedRun drives the CLI sharded path end to end: subfarm plus the
// external domain, two workers, health checks green, and the scheduler
// efficiency line printed.
func TestShardedRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-duration", "15m", "-inmates", "2", "-sharded", "-workers", "2",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "domains busy per synchronization round") {
		t.Fatalf("sharded stats line missing from stderr: %s", errOut.String())
	}
}

// TestRetiredShardsFlagRejected: the external-shard count is gone, and an
// old command line fails flag parsing instead of being half-honoured.
func TestRetiredShardsFlagRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-shards", "2"}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "flag provided but not defined: -shards") {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
}

// TestRetiredSuperviseFlagRejected: supervision has one shape, -tree; the
// subfarm-only -supervise fails flag parsing.
func TestRetiredSuperviseFlagRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-supervise", "-chaos", "crash"}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "flag provided but not defined: -supervise") {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
}

// TestRetiredNanoTraceFlagRejected: -trace writes one pcap format, classic
// microsecond; -nano-trace fails flag parsing.
func TestRetiredNanoTraceFlagRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-nano-trace", "-trace", filepath.Join(t.TempDir(), "run.pcap")}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "flag provided but not defined: -nano-trace") {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
}

// TestUnrunnableChaosSpecRejected: a -chaos spec the injector cannot run —
// here a flap every nanosecond, which would spin the event loop without
// advancing the run — fails before the farm is built, naming the key.
func TestUnrunnableChaosSpecRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	start := time.Now()
	code := run([]string{"-chaos", "light,flapevery=1ns", "-duration", "1m", "-inmates", "2"}, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), `"flapevery"`) {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("rejection took %v; it should come before any run", el)
	}
}

// TestBadMetricsFormatRejected: the format is validated before the run so
// a typo cannot cost an hour of soak.
func TestBadMetricsFormatRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-metrics-format", "xml"}, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "metrics-format") {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
}

// TestMetricsFormats exercises the -metrics writer in all three formats on
// a short healthy run.
func TestMetricsFormats(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		format string
		want   string
	}{
		{"json", `"counters"`},
		{"prom", "# TYPE gq_sim_time_seconds gauge"},
		{"text", "Telemetry snapshot (sim time"},
	} {
		path := filepath.Join(dir, "metrics."+tc.format)
		var out, errOut bytes.Buffer
		code := run([]string{
			"-duration", "5m", "-drain", "10m", "-inmates", "1",
			"-metrics", path, "-metrics-format", tc.format,
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s run exited %d (stderr: %s)", tc.format, code, errOut.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), tc.want) {
			t.Fatalf("%s metrics missing %q:\n%.300s", tc.format, tc.want, b)
		}
	}
}

var updateDigests = flag.Bool("update", false, "rewrite testdata/run_digests.txt with the current runs' artifacts")

// wallTime masks the one stderr field that is wall-clock, not simulation.
var wallTime = regexp.MustCompile(`done in \S+ wall time`)

// TestRunDigests pins everything a batch run leaves behind — journal, pcap,
// metrics JSON, report and (wall time masked) stderr — across commits, the
// way TestSoakJournalDigests pins the soak journals: a refactor of the
// build or run path must not move a byte. Each artifact's SHA-256 must
// match testdata/run_digests.txt; `go test -run TestRunDigests ./cmd/gqfarm
// -update` regenerates the file after an intended behaviour change.
func TestRunDigests(t *testing.T) {
	path := filepath.Join("testdata", "run_digests.txt")
	want := make(map[string]string)
	if !*updateDigests {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if name, sum, ok := strings.Cut(line, " "); ok {
				want[name] = sum
			}
		}
	}
	var got bytes.Buffer
	for _, r := range []struct {
		name  string
		trace bool
		args  []string
	}{
		{"plain", false, nil},
		{"trace", true, nil},
		{"full", true, []string{"-rawiron", "3", "-tree", "-chaos", "soak", "-sharded", "-workers", "1"}},
	} {
		dir := t.TempDir()
		file := func(name string) string { return filepath.Join(dir, name) }
		args := append([]string{"-events", file("journal"), "-metrics", file("metrics"), "-flight-dir", dir}, r.args...)
		artifacts := []string{"journal", "metrics", "report", "stderr"}
		if r.trace {
			args = append(args, "-trace", file("pcap"))
			artifacts = append(artifacts, "pcap")
		}
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", r.name, code, errOut.String())
		}
		stderr := wallTime.ReplaceAll(errOut.Bytes(), []byte("done in WALL wall time"))
		stderr = bytes.ReplaceAll(stderr, []byte(dir), []byte("DIR"))
		for _, a := range artifacts {
			var b []byte
			switch a {
			case "report":
				b = out.Bytes()
			case "stderr":
				b = stderr
			default:
				var err error
				if b, err = os.ReadFile(file(a)); err != nil {
					t.Fatal(err)
				}
			}
			name := r.name + "/" + a
			sum := sha256.Sum256(b)
			hexSum := hex.EncodeToString(sum[:])
			fmt.Fprintf(&got, "%s %s\n", name, hexSum)
			if *updateDigests {
				continue
			}
			switch pinned, ok := want[name]; {
			case !ok:
				t.Errorf("%s: no pinned digest in %s (run with -update)", name, path)
			case pinned != hexSum:
				t.Errorf("%s: digest %s, pinned %s — the run moved", name, hexSum, pinned)
			}
		}
	}
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
