package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gq/internal/chaos"
	"gq/internal/farm"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/journal_digests.txt with the current journals")

const digestFile = "journal_digests.txt"

// flowFields matches the fields flow events gained with the flow id: the
// id, the direction and the annotation. A journal with them stripped must
// hash to the second column of the digest file, the digest of the journal
// before them, so a re-pin shows that nothing else moved.
var flowFields = regexp.MustCompile(`,"flow":[0-9]+|,"inbound":true|,"annotation":"(?:[^"\\]|\\.)*"`)

// digests returns the SHA-256 of a journal and of the journal without the
// flow fields, in hex.
func digests(journal []byte) (whole, stripped string) {
	w := sha256.Sum256(journal)
	s := sha256.Sum256(flowFields.ReplaceAll(journal, nil))
	return hex.EncodeToString(w[:]), hex.EncodeToString(s[:])
}

// soakJournal names one pinned soak run and produces its NDJSON journal.
type soakJournal struct {
	name string
	run  func() ([]byte, error)
}

// pinnedSoaks lists every soak whose journal is pinned across commits:
// the unsharded chaos, recovery, recycle and fleet soaks and the sharded
// (workers=1) ones, on the seeds their own tests pin.
func pinnedSoaks(t *testing.T) []soakJournal {
	t.Helper()
	soak, err := chaos.Parse("soak")
	if err != nil {
		t.Fatal(err)
	}
	reimage, err := chaos.Parse("reimage")
	if err != nil {
		t.Fatal(err)
	}
	chaosRun := func(cfg ChaosConfig) func() ([]byte, error) {
		return func() ([]byte, error) {
			out, err := RunChaosSoak(cfg)
			if err != nil {
				return nil, err
			}
			return out.Journal, nil
		}
	}
	recoveryRun := func(layout farm.Layout) func() ([]byte, error) {
		return func() ([]byte, error) {
			out, err := RunRecoverySoak(layout)
			if err != nil {
				return nil, err
			}
			return out.Journal, nil
		}
	}
	recycleRun := func(cfg RecycleConfig) func() ([]byte, error) {
		return func() ([]byte, error) {
			out, err := RunRecycleSoak(cfg)
			if err != nil {
				return nil, err
			}
			return out.Journal, nil
		}
	}
	fleetRun := func(layout farm.Layout) func() ([]byte, error) {
		return func() ([]byte, error) {
			out, err := RunFleetSoak(layout)
			if err != nil {
				return nil, err
			}
			return out.Journal, nil
		}
	}
	var runs []soakJournal
	for _, seed := range chaosSeeds {
		runs = append(runs,
			soakJournal{fmt.Sprintf("chaos/serial/seed%d", seed),
				chaosRun(ChaosConfig{Layout: farm.Layout{Seed: seed}, Profile: soak})},
			soakJournal{fmt.Sprintf("recovery/serial/seed%d", seed),
				recoveryRun(farm.Layout{Seed: seed})},
			soakJournal{fmt.Sprintf("recovery/sharded/seed%d", seed),
				recoveryRun(farm.Layout{Seed: seed, Sharded: true, Workers: 1})},
		)
	}
	return append(runs,
		soakJournal{"chaos/sharded/seed7",
			chaosRun(ChaosConfig{Layout: farm.Layout{Seed: 7, Sharded: true, Workers: 1}, Profile: soak, Supervise: true})},
		soakJournal{"recycle/serial/seed11",
			recycleRun(RecycleConfig{Layout: farm.Layout{Seed: 11}, Profile: reimage})},
		soakJournal{"recycle/sharded/seed11",
			recycleRun(RecycleConfig{Layout: farm.Layout{Seed: 11, Sharded: true, Workers: 1}, Profile: reimage})},
		soakJournal{"fleet/serial/seed11",
			fleetRun(farm.Layout{Seed: 11})},
		soakJournal{"fleet/sharded/ext1/seed11",
			fleetRun(farm.Layout{Seed: 11, Sharded: true, Workers: 1})},
	)
}

// TestSoakJournalDigests pins every soak journal across commits: the
// determinism tests prove a journal is the same at any worker count, this
// one proves a refactor did not move it. Each journal's SHA-256 must match
// the first column of testdata/journal_digests.txt, and its SHA-256 with
// the flow fields stripped the second; `go test -run TestSoakJournalDigests
// -update` regenerates both after an intended behaviour change.
func TestSoakJournalDigests(t *testing.T) {
	path := filepath.Join("testdata", digestFile)
	want := make(map[string][]string)
	if !*updateDigests {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 3 {
				want[fields[0]] = fields[1:]
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	for _, r := range pinnedSoaks(t) {
		journal, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		whole, stripped := digests(journal)
		fmt.Fprintf(&got, "%s %s %s\n", r.name, whole, stripped)
		if *updateDigests {
			continue
		}
		switch pinned, ok := want[r.name]; {
		case !ok:
			t.Errorf("%s: no pinned digest in %s (run with -update)", r.name, path)
		case pinned[0] != whole:
			t.Errorf("%s: journal digest %s, pinned %s — the journal moved", r.name, whole, pinned[0])
		case pinned[1] != stripped:
			t.Errorf("%s: journal digest without flow fields %s, pinned %s", r.name, stripped, pinned[1])
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
