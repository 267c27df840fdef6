package farm

import (
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gq/internal/hostnet"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// TestStdlibHTTPSinkThroughGateway is the facade's end-to-end acceptance
// run: an inmate drives an unmodified http.Client over the blocking
// facade, the gateway consults the Clickbot policy, the flow is REFLECTed
// to the HTTP sink host — where an unmodified stdlib http.Server has taken
// port 80 over from the callback sink — and the inmate reads a well-formed
// 200 believing it reached the ad network.
func TestStdlibHTTPSinkThroughGateway(t *testing.T) {
	f := New(77)
	sf, err := f.AddSubfarm(SubfarmConfig{
		Name:   "Clickfarm",
		VLANLo: 16, VLANHi: 16,
		ServiceVLAN:  11,
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig: "[VLAN 16-16]\nDecider = Clickbot\n",
	})
	if err != nil {
		t.Fatal(err)
	}

	sinkHost := sf.SvcHosts["httpsink"]
	var ln net.Listener
	f.Sim.Go("http-listen", func(*sim.Proc) {
		sinkHost.Unlisten(80)
		ln, err = hostnet.New(sinkHost).Listen(80)
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var urls []string
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		urls = append(urls, r.URL.String())
		mu.Unlock()
	}))

	// Take over the boot sequence: no auto-infection, just signal the
	// "specimen" (the alien goroutine below) that the OS is up with a
	// lease.
	var booted atomic.Bool
	sf.OnBootHook = func(fi *FarmInmate) { booted.Store(true) }
	fi, err := sf.AddInmate("clicker")
	if err != nil {
		t.Fatal(err)
	}

	stack := hostnet.New(fi.Host)
	var done atomic.Bool
	var status int
	var body []byte
	var httpErr error
	go func() {
		defer done.Store(true)
		for !booted.Load() {
			time.Sleep(time.Millisecond)
		}
		client := &http.Client{
			Transport: &http.Transport{
				DialContext:       stack.DialContext,
				DisableKeepAlives: true,
			},
			// Real-time safety net so a wedged farm fails the test instead
			// of hanging it.
			Timeout: 30 * time.Second,
		}
		resp, err := client.Get("http://198.51.100.10/click?ad=1")
		if err != nil {
			httpErr = err
			return
		}
		body, httpErr = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}()

	if ok := f.Sim.Pump(time.Hour, done.Load); !ok {
		t.Fatal("virtual hour elapsed before the click round trip finished")
	}
	if httpErr != nil {
		t.Fatalf("click request: %v", httpErr)
	}
	if status != 200 {
		t.Fatalf("status %d, want 200", status)
	}
	if len(body) != 0 {
		t.Fatalf("sink answered with a body: %q", body)
	}

	mu.Lock()
	if len(urls) != 1 || urls[0] != "/click?ad=1" {
		t.Fatalf("sink URLs %v", urls)
	}
	mu.Unlock()

	// The flow must have been contained by an explicit REFLECT verdict on
	// port 80 — the click never reached 198.51.100.10.
	var reflected bool
	if d := f.Sim.Obs().Journal.DumpScope("Clickfarm", "post-run"); d != nil {
		for _, e := range d.Events {
			if e.Type == obs.EvFlowVerdict && e.DstPort == 80 &&
				shim.Verdict(e.Verdict).Has(shim.Reflect) {
				reflected = true
			}
		}
	}
	if !reflected {
		t.Fatal("no REFLECT verdict journaled for the port-80 flow")
	}
}
