package sink

import (
	"net"
	"net/http"
	"sync"

	"gq/internal/host"
	"gq/internal/hostnet"
	"gq/internal/obs"
	"gq/internal/sim"
)

// HTTPServerSink is the HTTP click sink served by an unmodified stdlib
// http.Server running over the hostnet blocking facade. Functionally it
// matches HTTPSink — empty 200 for every request, hit and URL counters —
// but the protocol engine is net/http itself, so malformed requests,
// pipelining, chunked bodies and keep-alive all behave exactly like a
// production server a specimen would click against.
//
// The server's handler goroutines are detached (DESIGN.md §3e): the
// simulation must be driven with Simulator.Pump while this sink is live,
// and the habitat cannot be a sharded domain. Farms that need
// byte-deterministic journals keep the callback HTTPSink.
type HTTPServerSink struct {
	// mu guards hits/urls: handlers run on net/http's own goroutines. Like
	// HTTPSink, urls keeps the first maxKeptURLs request targets.
	mu   sync.Mutex
	hits uint64
	urls []string

	hitsCtr *obs.Counter
	srv     *http.Server
	ln      net.Listener
}

// NewHTTPServerSink installs the sink on h at port and starts its accept
// loop. The simulator need not be running yet: setup completes in proc
// context, and the accept loop blocks until the first Pump.
func NewHTTPServerSink(h *host.Host, port uint16) (*HTTPServerSink, error) {
	s := &HTTPServerSink{
		hitsCtr: h.Sim().Obs().Reg.Counter("sink." + h.Name + ".http_hits"),
	}
	stack := hostnet.New(h)
	var ln net.Listener
	var err error
	// Listen through a proc so it runs in loop context even though the
	// caller is an ordinary goroutine with the simulator idle.
	h.Sim().Go(h.Name+"-http-listen", func(p *sim.Proc) {
		ln, err = stack.Listen(port)
	})
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *HTTPServerSink) handle(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.hits++
	if len(s.urls) < maxKeptURLs {
		s.urls = append(s.urls, r.URL.String())
	}
	s.mu.Unlock()
	s.hitsCtr.Inc()
	w.Header().Set("Content-Length", "0")
	w.WriteHeader(http.StatusOK)
}

// Hits returns the number of requests answered.
func (s *HTTPServerSink) Hits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// URLs returns a copy of the first maxKeptURLs request URLs.
func (s *HTTPServerSink) URLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.urls...)
}

// Close stops the server and its listener. Call it while the simulation
// is still being pumped: teardown blocks on injected facade operations.
func (s *HTTPServerSink) Close() error { return s.srv.Close() }
