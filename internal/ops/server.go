package ops

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/obs"
	"gq/internal/supervisor"
)

// DefaultControlTimeout bounds how long a control endpoint waits for the
// sim loop to pick up its injected action before answering 503.
const DefaultControlTimeout = 2 * time.Second

// keepAliveEvery paces SSE comment lines so idle streams stay open through
// proxies and dead clients are detected.
const keepAliveEvery = 5 * time.Second

// Config wires an ops Server to a served farm.
type Config struct {
	Farm *farm.Farm
	// Fanout is the subscription hub interposed on the journal sink; the
	// /events endpoint subscribes here.
	Fanout *obs.Fanout
	// Driver owns the soak loop; control endpoints inject through it.
	Driver *Driver
}

// Server is the ops-plane HTTP handler set. All read handlers consume only
// registry snapshots, journal dump copies, and fanout rings; all write
// handlers go through Driver.Do into the domain owning the state they
// touch.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// injectors tracks the operator-started chaos injector per subfarm.
	// On a sharded farm the chaos closures run on different subfarms'
	// domain goroutines, so the map takes a lock; the injectors themselves
	// are only ever touched from their own subfarm's domain.
	injMu     sync.Mutex
	injectors map[string]*chaos.Injector
}

// NewServer builds the handler set.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Farm == nil || cfg.Fanout == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("ops: Config needs Farm, Fanout, and Driver")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), injectors: map[string]*chaos.Injector{}}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /flights", s.handleFlights)
	s.mux.HandleFunc("GET /flights/{i}", s.handleFlight)
	s.mux.HandleFunc("GET /machines", s.handleMachines)
	s.mux.HandleFunc("POST /policy", s.handlePolicy)
	s.mux.HandleFunc("POST /chaos", s.handleChaos)
	s.mux.HandleFunc("POST /lockdown", s.handleLockdown)
	s.mux.HandleFunc("POST /quarantine/{inmate}", s.handleQuarantine)
	s.mux.HandleFunc("POST /recycle/{inmate}", s.handleRecycle)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the root handler for http.Serve.
func (s *Server) Handler() http.Handler { return s.mux }

// subfarm resolves a subfarm by name; empty selects a sole subfarm.
func (s *Server) subfarm(name string) (*farm.Subfarm, error) {
	subs := s.cfg.Farm.Subfarms
	if name == "" {
		if len(subs) == 1 {
			return subs[0], nil
		}
		return nil, fmt.Errorf("farm has %d subfarms; name one", len(subs))
	}
	for _, sf := range subs {
		if sf.Name == name {
			return sf, nil
		}
	}
	return nil, fmt.Errorf("no subfarm %q", name)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds a control request's JSON body.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's body, one JSON value, into v. When it cannot, it
// answers the request itself — 413 for a body past maxBodyBytes, 400 for a
// malformed one or one with data after its value — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxBodyBytes))
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

// --- /healthz ----------------------------------------------------------

// stalledAfter is how long the soak loop may go without completing a pump
// slice before /healthz reports the driver stalled. Generous against GC
// pauses and loaded CI machines; tiny against a wedged loop.
const stalledAfter = 30 * time.Second

// kindHealth is one supervised endpoint kind's census in /healthz:
// how many endpoints the supervision tree claims to watch (expected), how
// many health gauges the registry actually holds (present), how many read
// healthy, and which are down.
type kindHealth struct {
	Expected int      `json:"expected"`
	Present  int      `json:"present"`
	Healthy  int      `json:"healthy"`
	Down     []string `json:"down,omitempty"`
}

type healthReply struct {
	Status          string                 `json:"status"` // "ok", "degraded", "stalled"
	SimTimeNS       int64                  `json:"sim_time_ns"`
	SimTime         string                 `json:"sim_time"`
	ProgressAgoMS   int64                  `json:"progress_ago_ms"`
	Subscribers     int                    `json:"subscribers"`
	EventsPublished uint64                 `json:"events_published"`
	EventsDropped   uint64                 `json:"events_dropped"`
	Supervision     map[string]*kindHealth `json:"supervision,omitempty"`
	Lockdowns       []string               `json:"lockdowns,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d := s.cfg.Driver
	rep := healthReply{
		Status:          "ok",
		SimTimeNS:       int64(d.Now()),
		SimTime:         d.Now().String(),
		ProgressAgoMS:   d.SinceProgress().Milliseconds(),
		Subscribers:     s.cfg.Fanout.Subscribers(),
		EventsPublished: s.cfg.Fanout.Published(),
		EventsDropped:   s.cfg.Fanout.Dropped(),
	}
	degraded := s.supervisionHealth(&rep)
	status := http.StatusOK
	if degraded {
		rep.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	if d.SinceProgress() > stalledAfter {
		rep.Status = "stalled"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

// supervisionHealth fills rep.Supervision and rep.Lockdowns from the
// metric registry plus the tree's build-time watch censuses, and reports
// whether the containment plane is degraded. A bare gauge scan would be
// vacuously healthy with no gauges at all — a supervisor that was never
// attached, or whose registrations went missing, read as green. Checking
// present against expected per kind closes that hole: every endpoint a
// node claims to watch must have its health gauge present and at 1, and
// no node may sit in fail-closed lockdown.
func (s *Server) supervisionHealth(rep *healthReply) bool {
	expected := map[string]int{}
	for _, sf := range s.cfg.Farm.Subfarms {
		if sup := sf.Supervisor; sup != nil {
			for k, n := range sup.WatchCounts() {
				expected[k] += n
			}
		}
	}
	if tr := s.cfg.Farm.Tree; tr != nil {
		for k, n := range tr.WatchCounts() {
			expected[k] += n
		}
	}
	kinds := map[string]*kindHealth{}
	kindFor := func(k string) *kindHealth {
		if kinds[k] == nil {
			kinds[k] = &kindHealth{}
		}
		return kinds[k]
	}
	for k, n := range expected {
		kindFor(k).Expected = n
	}
	degraded := false
	snap := s.cfg.Farm.Sim.Obs().Snapshot()
	names := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names) // stable Down lists and lockdown order
	for _, name := range names {
		v := snap.Gauges[name]
		if kind, ep, ok := supervisor.ParseHealthGauge(name); ok {
			kh := kindFor(string(kind))
			kh.Present++
			if v == 1 {
				kh.Healthy++
			} else {
				kh.Down = append(kh.Down, ep)
				degraded = true
			}
			continue
		}
		if strings.HasPrefix(name, supervisor.HealthGaugePrefix) &&
			strings.HasSuffix(name, supervisor.LockdownGaugeSuffix) && v == 1 {
			node := strings.TrimSuffix(strings.TrimPrefix(name, supervisor.HealthGaugePrefix), supervisor.LockdownGaugeSuffix)
			rep.Lockdowns = append(rep.Lockdowns, node)
			degraded = true
		}
	}
	for _, kh := range kinds {
		if kh.Present < kh.Expected {
			degraded = true
		}
	}
	if len(kinds) > 0 {
		rep.Supervision = kinds
	}
	return degraded
}

// --- /metrics ----------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Farm.Sim.Obs().Snapshot()
	switch f := r.URL.Query().Get("format"); f {
	case "", "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WriteProm(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (prom, json, text)", f))
	}
}

// --- /events (SSE) -----------------------------------------------------

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	q := r.URL.Query()
	buf := 0
	if bs := q.Get("buf"); bs != "" {
		n, err := strconv.Atoi(bs)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad buf %q", bs))
			return
		}
		buf = n
	}
	sub := s.cfg.Fanout.Subscribe(buf, obs.ParseFilter(q.Get("scope"), q.Get("type")))
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": gq ops event stream t=%s\n\n", s.cfg.Driver.Now())
	fl.Flush()

	j := s.cfg.Farm.Sim.Obs().Journal
	keep := time.NewTicker(keepAliveEvery)
	defer keep.Stop()
	var (
		evs     []obs.Event
		line    []byte
		dropped uint64
	)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keep.C:
			fmt.Fprintf(w, ": keepalive t=%s\n\n", s.cfg.Driver.Now())
			fl.Flush()
		case <-sub.Notify():
			evs = sub.Drain(evs[:0])
			for _, e := range evs {
				line = j.RenderEvent(line[:0], e)
				// RenderEvent yields one JSON object + trailing newline;
				// SSE data lines must not embed raw newlines.
				fmt.Fprintf(w, "data: %s\n\n", strings.TrimRight(string(line), "\n"))
			}
			if d := sub.Dropped(); d > dropped {
				fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", d)
				dropped = d
			}
			fl.Flush()
		}
	}
}

// --- /flights ----------------------------------------------------------

type flightEntry struct {
	I      int    `json:"i"`
	Scope  string `json:"scope"`
	Reason string `json:"reason"`
	TNS    int64  `json:"t_ns"`
	Events int    `json:"events"`
}

func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) {
	j := s.cfg.Farm.Sim.Obs().Journal
	dumps := j.Dumps()
	out := struct {
		Dumps   []flightEntry `json:"dumps"`
		Evicted uint64        `json:"evicted"`
	}{Dumps: []flightEntry{}, Evicted: j.EvictedDumps()}
	for i, d := range dumps {
		out.Dumps = append(out.Dumps, flightEntry{
			I: i, Scope: d.Scope, Reason: d.Reason, TNS: int64(d.At), Events: len(d.Events),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad dump index %q", r.PathValue("i")))
		return
	}
	j := s.cfg.Farm.Sim.Obs().Journal
	dumps := j.Dumps()
	if i < 0 || i >= len(dumps) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dump %d of %d", i, len(dumps)))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	j.WriteDump(w, dumps[i])
}

// --- /machines ---------------------------------------------------------

// handleMachines lists every subfarm's raw-iron machines with their
// lifecycle, retry, and breaker status. Machine state is sim-owned mutable
// state (not a snapshot) and each subfarm's raw-iron controller lives in
// that subfarm's domain, so the read fans out one posted action per
// subfarm, each running on its own domain's event loop.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	out := []farm.MachineInfo{}
	var err error
	for _, sf := range s.cfg.Farm.Subfarms {
		sf := sf
		if err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
			out = append(out, sf.Machines()...)
			return nil
		}); err != nil {
			break
		}
	}
	if err != nil {
		s.answerControl(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Machines []farm.MachineInfo `json:"machines"`
	}{out})
}

// --- control endpoints -------------------------------------------------

type policyReq struct {
	Subfarm string `json:"subfarm"`
	Lo      uint16 `json:"lo"`
	Hi      uint16 `json:"hi"`
	Policy  string `json:"policy"`
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	var req policyReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Policy == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("policy name required"))
		return
	}
	sf, err := s.subfarm(req.Subfarm)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	// Resolve nothing else up front: the swap itself — decider
	// construction included — runs inside the subfarm's event loop.
	err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
		return sf.SwapPolicy(req.Lo, req.Hi, req.Policy)
	})
	s.answerControl(w, err, map[string]any{
		"applied": "policy_swap", "subfarm": sf.Name,
		"lo": req.Lo, "hi": req.Hi, "policy": req.Policy,
	})
}

type chaosReq struct {
	Subfarm string `json:"subfarm"`
	// Spec is a chaos profile spec (preset and/or key=value overrides);
	// fault times count from injection. Empty with Stop set stops the
	// running injector.
	Spec string `json:"spec"`
	Stop bool   `json:"stop"`
}

func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	var req chaosReq
	if !decodeBody(w, r, &req) {
		return
	}
	sf, err := s.subfarm(req.Subfarm)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if req.Stop == (req.Spec != "") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("exactly one of spec or stop required"))
		return
	}
	sc := func() *obs.Scope { return sf.Sim.Obs().Scope(sf.Name, 0) }
	if req.Stop {
		err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
			s.injMu.Lock()
			inj := s.injectors[sf.Name]
			delete(s.injectors, sf.Name)
			s.injMu.Unlock()
			if inj == nil {
				return fmt.Errorf("no chaos injector running on %s", sf.Name)
			}
			inj.Stop()
			sc().Emit(obs.Event{Type: obs.EvOpsChaosStop})
			return nil
		})
		s.answerControl(w, err, map[string]any{"applied": "chaos_stop", "subfarm": sf.Name})
		return
	}
	p, err := chaos.Parse(req.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
		s.injMu.Lock()
		running := s.injectors[sf.Name] != nil
		s.injMu.Unlock()
		if running {
			return fmt.Errorf("chaos injector already running on %s (stop it first)", sf.Name)
		}
		inj := chaos.Apply(sf, p)
		s.injMu.Lock()
		s.injectors[sf.Name] = inj
		s.injMu.Unlock()
		sc().Emit(obs.Event{Type: obs.EvOpsChaosInject, Detail: req.Spec})
		return nil
	})
	s.answerControl(w, err, map[string]any{
		"applied": "chaos_inject", "subfarm": sf.Name, "spec": req.Spec,
	})
}

type lockdownReq struct {
	// On engages the fail-closed lockdown; false releases it.
	On bool `json:"on"`
	// Subfarm scopes the action to one subfarm's containment plane; empty
	// means the whole farm (requires a supervision tree).
	Subfarm string `json:"subfarm"`
	Reason  string `json:"reason"`
}

// handleLockdown drives the containment lockdown from the ops plane: the
// reversible counterpart of the tree's own escalation. Subfarm lockdowns
// go through the subfarm's tree node when one is attached (so the
// operator action lands in the escalation history like any other
// transition); global lockdowns fan out through the root.
func (s *Server) handleLockdown(w http.ResponseWriter, r *http.Request) {
	var req lockdownReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Reason == "" {
		req.Reason = "operator"
	}
	verb := "off"
	if req.On {
		verb = "on"
	}
	f := s.cfg.Farm
	if req.Subfarm == "" {
		tree := f.Tree
		if tree == nil {
			writeErr(w, http.StatusUnprocessableEntity,
				fmt.Errorf("global lockdown needs a supervision tree (run with -tree)"))
			return
		}
		err := s.cfg.Driver.Do(DefaultControlTimeout, f.Sim, func() error {
			if req.On {
				tree.GlobalLockdown(req.Reason)
			} else {
				tree.Release(req.Reason)
			}
			f.Sim.Obs().Scope("farm", 0).Emit(obs.Event{
				Type: obs.EvOpsLockdown, Detail: "global " + verb + " " + req.Reason,
			})
			return nil
		})
		s.answerControl(w, err, map[string]any{
			"applied": "lockdown", "scope": "global", "on": req.On, "reason": req.Reason,
		})
		return
	}
	sf, err := s.subfarm(req.Subfarm)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	closed := 0
	err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
		closed = sf.SetLockdown(req.On, req.Reason)
		sf.Sim.Obs().Scope(sf.Name, 0).Emit(obs.Event{
			Type: obs.EvOpsLockdown, Detail: sf.Name + " " + verb + " " + req.Reason,
		})
		return nil
	})
	s.answerControl(w, err, map[string]any{
		"applied": "lockdown", "scope": sf.Name, "on": req.On,
		"reason": req.Reason, "flows_failed_closed": closed,
	})
}

type quarantineReq struct {
	Subfarm string `json:"subfarm"`
	Action  string `json:"action"` // start, stop, reboot, revert, terminate
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	vlan64, err := strconv.ParseUint(r.PathValue("inmate"), 10, 16)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad inmate VLAN %q", r.PathValue("inmate")))
		return
	}
	vlan := uint16(vlan64)
	var req quarantineReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Action == "" {
		req.Action = "revert"
	}
	sf, err := s.subfarm(req.Subfarm)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
		return sf.QuarantineInmate(vlan, req.Action)
	})
	s.answerControl(w, err, map[string]any{
		"applied": "quarantine", "subfarm": sf.Name, "vlan": vlan, "action": req.Action,
	})
}

type recycleReq struct {
	Subfarm string `json:"subfarm"`
}

// handleRecycle forces one raw-iron inmate out of its detonation window
// through the capture → reimage → re-admit path.
func (s *Server) handleRecycle(w http.ResponseWriter, r *http.Request) {
	vlan64, err := strconv.ParseUint(r.PathValue("inmate"), 10, 16)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad inmate VLAN %q", r.PathValue("inmate")))
		return
	}
	vlan := uint16(vlan64)
	var req recycleReq
	if !decodeBody(w, r, &req) {
		return
	}
	sf, err := s.subfarm(req.Subfarm)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	err = s.cfg.Driver.Do(DefaultControlTimeout, sf.Sim, func() error {
		return sf.RecycleInmate(vlan)
	})
	s.answerControl(w, err, map[string]any{
		"applied": "recycle", "subfarm": sf.Name, "vlan": vlan,
	})
}

// answerControl maps a Driver.Do outcome onto a control response.
func (s *Server) answerControl(w http.ResponseWriter, err error, ok map[string]any) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, ok)
	case err == ErrTimeout, err == ErrStopped:
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusUnprocessableEntity, err)
	}
}
