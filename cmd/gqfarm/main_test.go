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

	"gq/internal/gateway"
	"gq/internal/netstack"
	"gq/internal/trace"
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

// flowFields matches the fields flow events gained with the flow id: the
// id, the direction and the annotation. A journal with them stripped must
// hash to its second pinned digest, the digest of the journal before them,
// so a re-pin shows that nothing else moved.
var flowFields = regexp.MustCompile(`,"flow":[0-9]+|,"inbound":true|,"annotation":"(?:[^"\\]|\\.)*"`)

// TestRunDigests pins everything a batch run leaves behind — journal, pcap,
// metrics JSON, report and (wall time masked) stderr — across commits, the
// way TestSoakJournalDigests pins the soak journals: a refactor of the
// build or run path must not move a byte. Each artifact's SHA-256 must
// match testdata/run_digests.txt, and a journal's SHA-256 with the flow
// fields stripped its second column; `go test -run TestRunDigests
// ./cmd/gqfarm -update` regenerates the file after an intended behaviour
// change.
func TestRunDigests(t *testing.T) {
	path := filepath.Join("testdata", "run_digests.txt")
	want := make(map[string]string)
	if !*updateDigests {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if name, sums, ok := strings.Cut(line, " "); ok {
				want[name] = sums
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
			if a == "journal" {
				stripped := sha256.Sum256(flowFields.ReplaceAll(b, nil))
				hexSum += " " + hex.EncodeToString(stripped[:])
			}
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

// TestTraceHasNoRedundantACKs walks a traced run's pcap for pure ACKs that
// say nothing new (RFC 1122 4.2.3.2). Looking back: one an inmate or
// containment server sends is never where that endpoint's previous segment
// ended with the same acknowledgment number, unless a segment with data,
// SYN or FIN reached the endpoint in between. Looking forward: no pure ACK,
// a host's or one the gateway sends in an endpoint's name, is followed at
// the same instant by a segment from the same sender and endpoint carrying
// the same acknowledgment number, or by another pure ACK; and no data
// segment is followed at the same instant by a bare FIN, which it could
// have carried. A reset does not count as carrying an ACK: a peer still in
// SYN_RCVD drops a reset without taking its ACK. Frames the gateway
// transmits carry its MAC; every other traced frame is a host's own, as it
// left the host.
func TestTraceHasNoRedundantACKs(t *testing.T) {
	pcap := filepath.Join(t.TempDir(), "run.pcap")
	var out, errOut bytes.Buffer
	if code := run([]string{"-trace", pcap}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, errOut.String())
	}
	f, err := os.Open(pcap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	type endpoint struct {
		ip, peerIP     netstack.Addr
		port, peerPort uint16
		gw             bool // the gateway sent it, in this endpoint's name
	}
	type sent struct {
		end, ack uint32 // where the segment ended in sequence space, its ACK
		newData  bool   // data, SYN or FIN reached the endpoint since
	}
	type pure struct {
		at  time.Time
		ack uint32
	}
	last := make(map[endpoint]sent)
	lastPure := make(map[endpoint]pure)      // the sender's last segment, while a pure ACK
	lastData := make(map[endpoint]time.Time) // when it was sent, while data without a FIN
	pureACKs, redundant, shadowed, twice, bareFIN := 0, 0, 0, 0, 0
	for _, rec := range recs {
		p, err := netstack.ParseFrame(rec.Frame)
		if err != nil || p.IP == nil || p.TCP == nil {
			continue
		}
		tcp := p.TCP
		consumes := uint32(len(p.Payload))
		if tcp.Flags&netstack.FlagSYN != 0 {
			consumes++
		}
		if tcp.Flags&netstack.FlagFIN != 0 {
			consumes++
		}
		gw := p.Eth.Src == gateway.GatewayMAC
		from := endpoint{p.IP.Src, p.IP.Dst, tcp.SrcPort, tcp.DstPort, gw}
		if tcp.Flags&(netstack.FlagACK|netstack.FlagRST) == netstack.FlagACK {
			if lp, ok := lastPure[from]; ok && lp.at.Equal(rec.Time) && lp.ack == tcp.Ack {
				if shadowed++; shadowed <= 5 {
					t.Errorf("%v: %s carries the ACK of a pure ACK sent at the same instant", rec.Time, p)
				}
			}
		}
		pureACK := tcp.Flags == netstack.FlagACK && consumes == 0
		if lp, ok := lastPure[from]; ok && pureACK && lp.at.Equal(rec.Time) {
			if twice++; twice <= 5 {
				t.Errorf("%v: %s follows a pure ACK sent at the same instant", rec.Time, p)
			}
		}
		if at, ok := lastData[from]; ok && at.Equal(rec.Time) && tcp.Flags&netstack.FlagFIN != 0 && len(p.Payload) == 0 {
			if bareFIN++; bareFIN <= 5 {
				t.Errorf("%v: %s is a bare FIN behind a data segment sent at the same instant", rec.Time, p)
			}
		}
		if pureACK {
			lastPure[from] = pure{rec.Time, tcp.Ack}
		} else {
			delete(lastPure, from)
		}
		if len(p.Payload) > 0 && tcp.Flags&(netstack.FlagFIN|netstack.FlagRST) == 0 {
			lastData[from] = rec.Time
		} else {
			delete(lastData, from)
		}
		if gw {
			to := endpoint{p.IP.Dst, p.IP.Src, tcp.DstPort, tcp.SrcPort, false}
			if s, ok := last[to]; ok && consumes > 0 {
				s.newData = true
				last[to] = s
			}
			continue
		}
		if pureACK {
			pureACKs++
			if s, ok := last[from]; ok && !s.newData && s.end == tcp.Seq && s.ack == tcp.Ack {
				if redundant++; redundant <= 5 {
					t.Errorf("%v: %s repeats the ACK its previous segment carried", rec.Time, p)
				}
			}
		}
		last[from] = sent{end: tcp.Seq + consumes, ack: tcp.Ack}
	}
	if pureACKs == 0 {
		t.Fatal("the trace holds no host pure ACK: the walk checked nothing")
	}
	if redundant > 0 {
		t.Errorf("%d of %d host pure ACKs are redundant", redundant, pureACKs)
	}
	if shadowed > 0 {
		t.Errorf("%d of %d records are pure ACKs that a segment sent at the same instant repeats", shadowed, len(recs))
	}
	if twice > 0 {
		t.Errorf("%d of %d records are a second pure ACK at one instant", twice, len(recs))
	}
	if bareFIN > 0 {
		t.Errorf("%d of %d records are a bare FIN behind data sent at the same instant", bareFIN, len(recs))
	}
}
