// httpfacade: unmodified stdlib HTTP through the containment farm.
//
// The hostnet facade turns a simulated host's callback TCP stack into
// blocking net.Conn / net.Listener / DialContext, so ordinary Go protocol
// code runs inside the farm unchanged. Here the HTTP sink is a real
// net/http server, listening on the subfarm's HTTP sink host in place of
// the farm's callback sink, and the "specimen" is a real http.Client
// issuing click-fraud requests from an inmate — the Clickbot policy
// REFLECTs them into the sink, and the client cannot tell.
//
// Because the stdlib spawns its own goroutines, the simulation is driven
// with Pump instead of Run (and cannot be sharded): alien goroutines
// inject their operations into the event loop and virtual time advances
// only when the farm has work. See DESIGN.md §3e for the two facade
// disciplines.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gq"
	"gq/internal/hostnet"
	"gq/internal/sim"
)

func main() {
	// The boot hook just signals the click loop below; no auto-infection.
	var booted atomic.Bool
	f, err := gq.Spec{
		Layout: gq.Layout{Seed: 7},
		Subfarms: []gq.SubfarmSpec{{
			SubfarmConfig: gq.SubfarmConfig{
				Name:   "clickfarm",
				VLANLo: 16, VLANHi: 20,
				GlobalPool:   gq.MustParsePrefix("192.0.2.0/24"),
				PolicyConfig: "[VLAN 16-20]\nDecider = Clickbot\n",
			},
			Inmates: []string{"clicker-0"},
			OnBoot:  func(*gq.FarmInmate) { booted.Store(true) },
		}},
	}.Build()
	if err != nil {
		panic(err)
	}
	sf := f.Subfarms[0]
	fi := sf.Inmates[sf.InmateVLANs()[0]]

	// The sink: a plain net/http server takes the HTTP sink host's port 80
	// over, listening from a proc because the simulator is not running yet.
	sinkHost := sf.SvcHosts["httpsink"]
	var ln net.Listener
	sinkHost.Sim().Go("http-listen", func(*sim.Proc) {
		sinkHost.Unlisten(80)
		ln, err = hostnet.New(sinkHost).Listen(80)
	})
	if err != nil {
		panic(err)
	}
	var mu sync.Mutex
	var urls []string
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		urls = append(urls, r.URL.String())
		mu.Unlock()
	}))

	// The specimen: a plain http.Client whose DialContext is the inmate
	// host's facade. Everything below the Transport is stock library code.
	stack := hostnet.New(fi.Host)
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		for !booted.Load() {
			time.Sleep(time.Millisecond)
		}
		client := &http.Client{Transport: &http.Transport{
			DialContext:       stack.DialContext,
			DisableKeepAlives: true,
		}}
		for i := 0; i < 5; i++ {
			url := fmt.Sprintf("http://198.51.100.10/ads/click?campaign=%d", i)
			resp, err := client.Get(url)
			if err != nil {
				fmt.Printf("  click %d failed: %v\n", i, err)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			fmt.Printf("  click %d: HTTP %d from %q\n", i, resp.StatusCode, url)
		}
	}()

	// Pump until the clicks are done (bounded by a virtual hour).
	f.Sim.Pump(time.Hour, done.Load)

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nstdlib HTTP sink answered %d requests:\n", len(urls))
	for _, u := range urls {
		fmt.Printf("  %s\n", u)
	}
	fmt.Println("\nEvery click got a well-formed 200 — none reached 198.51.100.10.")
}
