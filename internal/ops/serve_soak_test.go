package ops_test

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gq/internal/chaos"
	"gq/internal/experiments"
	"gq/internal/farm"
	"gq/internal/obs"
	"gq/internal/ops"
)

// TestServedSoakJournalByteIdentity is the ops-plane non-perturbation
// acceptance check: running the chaos soak with the full serving stack
// interposed — fanout on the sink chain, HTTP server up, a deliberately
// slow SSE client attached with a tiny ring — must produce byte-identical
// journal NDJSON to the unserved run of the same (seed, profile), while
// the slow client demonstrably loses events (dropped > 0) instead of
// backpressuring the sim.
func TestServedSoakJournalByteIdentity(t *testing.T) {
	profile, err := chaos.Parse("light,cscrash=6m")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7

	run := func(serve bool) (journal []byte, dropped uint64) {
		plan := experiments.ChaosPlan(experiments.ChaosConfig{Layout: farm.Layout{Seed: seed}, Profile: profile})
		var (
			recorded bytes.Buffer
			fan      *obs.Fanout
			ts       *httptest.Server
			cancel   context.CancelFunc
		)
		plan.Spec.Journal = &recorded
		if serve {
			plan.OnBuild = func(f *farm.Farm) error {
				// Interpose the fanout on the sink chain the way gqfarm
				// -serve does: live subscribers ride along without touching
				// the recorded stream.
				j := f.Sim.Obs().Journal
				fan = obs.NewFanout(j.Sink())
				j.SetSink(fan)
				// The soak drives the sim itself (f.Run); the driver here
				// only satisfies the server wiring and is never Run, so
				// control endpoints are out of scope for this test.
				srv, err := ops.NewServer(ops.Config{
					Farm: f, Fanout: fan, Driver: ops.NewDriver(f.Sim, 1),
				})
				if err != nil {
					return err
				}
				ts = httptest.NewServer(srv.Handler())
				// Don't start the soak until the subscription exists, or
				// the run could finish before the client ever attaches.
				cancel = startSlowSSEClient(t, ts.URL+"/events?buf=4")
				return nil
			}
		}
		if _, err := experiments.Execute(plan); err != nil {
			t.Fatal(err)
		}
		if fan != nil {
			dropped = fan.Dropped()
		}
		if cancel != nil {
			cancel() // release the parked stream so Close doesn't wait on it
		}
		if ts != nil {
			ts.Close()
		}
		return recorded.Bytes(), dropped
	}

	unserved, _ := run(false)
	served, dropped := run(true)

	if len(unserved) == 0 {
		t.Fatal("unserved soak journalled nothing")
	}
	if !bytes.Equal(unserved, served) {
		t.Fatalf("serving perturbed the journal: %d bytes unserved vs %d served",
			len(unserved), len(served))
	}
	if dropped == 0 {
		t.Fatal("slow SSE client lost nothing — the bounded ring was never exercised")
	}
}

// startSlowSSEClient subscribes with a tiny ring, waits for the stream
// preamble to prove the subscription is live, then stops reading entirely:
// the worst-behaved client the ops plane must tolerate. The returned
// cancel tears the connection down.
func startSlowSSEClient(t *testing.T, url string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("SSE preamble %q: %v", line, err)
	}
	go func() {
		// Park without reading until cancelled, then release the body.
		<-ctx.Done()
		resp.Body.Close()
	}()
	// The subscription exists (the preamble arrived after Subscribe); from
	// here on the unread stream backs up into the tiny ring and drops.
	return cancel
}
