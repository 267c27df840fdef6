package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Event types recorded by the farm. The set is small and closed on purpose:
// each names an operationally meaningful state change, not a packet.
const (
	EvFlowCreated  = "flow.created"         // gateway admitted a new flow into the table
	EvFlowVerdict  = "flow.verdict"         // verdict applied to a flow (Detail = policy, Annotation)
	EvFlowClosed   = "flow.closed"          // flow left the table (Detail = reason, Annotation = final)
	EvTriggerFired = "policy.trigger_fired" // a containment trigger's action fired
	EvNATExhausted = "nat.exhausted"        // NAT pool had no free address for an inmate
	EvFlowShed     = "flow.shed"            // bounded flow table evicted an LRU flow under pressure
	EvSweepReaped  = "sweep.reaped"         // periodic sweep reaped stale flows (N = count)
	// EvFlowFailClosed marks a flow resolved fail-closed: its containment
	// server died (or stalled past the await-verdict deadline) before delivering a
	// verdict, so the gateway recorded a synthetic Drop and RST both legs.
	// Distinct from EvFlowVerdict — no verdict crossed the wire.
	EvFlowFailClosed = "flow.failclosed"
	EvGRETunnelUp    = "gre.tunnel_up" // first packet through a GRE tunnel endpoint
	// EvInmatePrefix prefixes inmate lifecycle actions driven by triggers
	// or the operator: "inmate.revert", "inmate.reboot", "inmate.terminate".
	EvInmatePrefix = "inmate."
	// EvChaosPrefix prefixes fault-injection actions from internal/chaos:
	// "chaos.link_down", "chaos.link_up", "chaos.cs_crash",
	// "chaos.cs_restart", "chaos.verdict_stall", "chaos.sink_down",
	// "chaos.sink_up".
	EvChaosPrefix = "chaos."
	// EvSupervisorPrefix prefixes containment-plane supervision actions
	// from internal/supervisor: "supervisor.cs_down", "supervisor.cs_up",
	// "supervisor.cs_restart", "supervisor.cs_quarantine",
	// "supervisor.inmate_quarantine".
	EvSupervisorPrefix = "supervisor."
	// EvFacadeEcho records one blocking-facade echo round trip from the
	// farm's facade self-test pair (N = round, Verdict 0 ok / 1 failed).
	EvFacadeEcho = "facade.echo"
	// EvOpsPrefix prefixes operator control actions applied through the
	// live ops plane (internal/ops): "ops.policy_swap", "ops.chaos_inject",
	// "ops.chaos_stop", "ops.quarantine". Each is emitted from inside the
	// injected sim event that applies the action, so served runs stay
	// journal-consistent — the journal records operator intervention in
	// the same total order as everything else.
	EvOpsPrefix = "ops."
	// EvOpsPolicySwap records a mid-run containment-policy swap
	// (VLAN = lo, N = hi, Detail = policy name).
	EvOpsPolicySwap = EvOpsPrefix + "policy_swap"
	// EvOpsChaosInject / EvOpsChaosStop bracket an operator-injected chaos
	// profile (Detail = profile spec / name).
	EvOpsChaosInject = EvOpsPrefix + "chaos_inject"
	EvOpsChaosStop   = EvOpsPrefix + "chaos_stop"
	// EvOpsQuarantine records an operator lifecycle action on one inmate
	// (VLAN = inmate, Detail = action verb).
	EvOpsQuarantine = EvOpsPrefix + "quarantine"
	// EvOpsRecycle records an operator-forced recycle of one raw-iron
	// inmate (VLAN = inmate): the recycling pipeline pulls it out of its
	// detonation window immediately.
	EvOpsRecycle = EvOpsPrefix + "recycle"
	// EvOpsLockdown records an operator lockdown engage/release (Detail =
	// "<scope> on <reason>" / "<scope> off <reason>", scope "global" or a
	// subfarm name).
	EvOpsLockdown = EvOpsPrefix + "lockdown"
	// EvRawIronPrefix prefixes raw-iron lifecycle events from
	// internal/rawiron, journalled per machine under the "rawiron.<machine>"
	// scope: "rawiron.op_start", "rawiron.fault", "rawiron.retry",
	// "rawiron.queued", "rawiron.quarantine", "rawiron.op_done".
	EvRawIronPrefix = "rawiron."
	// EvLifecyclePrefix prefixes specimen-recycling pipeline events from
	// the farm recycler, journalled under "lifecycle.<subfarm>":
	// "lifecycle.detonate", "lifecycle.capture", "lifecycle.reimage",
	// "lifecycle.recycled", "lifecycle.lost".
	EvLifecyclePrefix = "lifecycle."
)

// Event is one journal record. It is a fixed-size value type: emitting one
// copies it into the scope's preallocated ring and (optionally) hands a
// copy to the sink, so the hot path never allocates. String fields must
// reference strings that already exist (constants, policy names, reasons) —
// never build a string to put in an Event on the datapath.
type Event struct {
	T     time.Duration // virtual sim-time stamp
	Type  string        // one of the Ev* constants
	Scope string        // originating scope (subfarm name, "gw", ...)

	VLAN             uint16
	Proto            uint8 // IP protocol (6 tcp, 17 udp), 0 if n/a
	Inbound          bool  // flow events: the initiator is outside the farm
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Verdict          uint32 // raw shim verdict bits, 0 if n/a
	Flow             uint32 // gateway flow id, unique within Scope; 0 if n/a
	N                uint64 // generic magnitude (reap count, ...)
	Detail           string // policy name, close reason, action, ...
	Annotation       string // flow.verdict, flow.closed: the flow's annotation
}

// Sink receives every journalled event. WriteEvent takes the event by
// value: a pointer signature would force each Event to escape to the heap
// even when no sink is attached.
type Sink interface {
	WriteEvent(e Event) error
}

// DefaultRingSize is the per-scope flight-recorder depth.
const DefaultRingSize = 256

// DefaultMaxDumps bounds the dumps a Journal retains so a trigger storm —
// or an indefinite served soak — cannot grow memory without bound. The
// newest dumps are kept; evictions are counted (EvictedDumps).
const DefaultMaxDumps = 32

// Journal owns the farm's event scopes. Emission is single-threaded per
// scope (each scope belongs to one simulation domain's goroutine); the
// mutex only guards scope/dump bookkeeping so that dump inspection from
// another goroutine is safe.
type Journal struct {
	// Epoch, when nonzero, adds a wall-clock rendering of each event's
	// virtual timestamp to serialized records (sim.Epoch for the farm).
	// Stamping itself always uses virtual time — see DESIGN.md §Telemetry.
	Epoch time.Time

	// parallel switches emission from write-through (stamp, ring, sink)
	// to per-stream buffering merged by FlushBefore. Set once at
	// coordinator construction, before any domain goroutine starts, and
	// never cleared — safe to read without synchronization.
	parallel bool

	mu          sync.Mutex
	sink        Sink
	follower    Sink
	streams     []*Stream
	merge       []bufferedEvent     // FlushBefore's scratch, reused
	scopes      map[string][]*Scope // per name: one ring per stream that asked, shard order
	order       []string
	dumps       []*Dump
	evicted     uint64
	verdictName func(uint32) string

	// Emitted counts events written to the journal (all scopes). In
	// parallel mode buffered events are counted when FlushBefore merges
	// them, keeping the total identical to a serial run's at flush points.
	Emitted uint64
}

// NewJournal creates a journal stamping events with clock.
func NewJournal(clock func() time.Duration) *Journal {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	j := &Journal{scopes: make(map[string][]*Scope)}
	// Stream 0 is the root domain's: scopes created via Journal.Scope
	// bind to it and stamp with clock.
	j.streams = []*Stream{{j: j, shard: 0, clock: clock}}
	return j
}

// Stream is one simulation domain's emission context: its shard id, its
// domain clock, and — in parallel mode — a buffer of events awaiting the
// deterministic merge. Each stream is written by exactly one goroutine at
// a time (its domain's), so no locking is needed on the emit path.
type Stream struct {
	j     *Journal
	shard int
	clock func() time.Duration
	seq   uint64
	buf   []bufferedEvent
}

// bufferedEvent tags a parallel-mode event with its merge key. Events are
// merged by (T, shard, seq): virtual time first, then shard id, then the
// stream-local emission sequence — a unique total order reproduced exactly
// for a given seed regardless of how many workers ran the domains.
type bufferedEvent struct {
	e     Event
	shard int
	seq   uint64
}

// NewStream registers a new emission stream (one per simulation domain)
// stamping events with the domain's clock. Stream 0 always exists and is
// the journal's own.
func (j *Journal) NewStream(clock func() time.Duration) *Stream {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &Stream{j: j, shard: len(j.streams), clock: clock}
	j.streams = append(j.streams, st)
	return st
}

// SetParallel switches the journal into buffered multi-domain mode. Must be
// called before any domain goroutine emits; it is one-way for the journal's
// lifetime.
func (j *Journal) SetParallel() { j.parallel = true }

// FlushBefore merges every stream's buffered events stamped before h into
// the journal's total order — (T, shard, seq) — and writes them through to
// the sink and the follower. The coordinator calls it after every round
// with h the earliest time anything can still happen, so nothing later can
// sort before what it writes, and at the end of a run with no bound. Call
// only while all domains are quiesced. No-op outside parallel mode.
func (j *Journal) FlushBefore(h time.Duration) {
	if !j.parallel {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	all := j.merge[:0]
	for _, st := range j.streams {
		// A stream's buffer is in emission order, so in time order.
		k := 0
		for k < len(st.buf) && st.buf[k].e.T < h {
			k++
		}
		if k > 0 {
			all = append(all, st.buf[:k]...)
			st.buf = st.buf[:copy(st.buf, st.buf[k:])]
		}
	}
	if len(all) == 0 {
		return
	}
	slices.SortFunc(all, func(a, b bufferedEvent) int {
		if c := cmp.Compare(a.e.T, b.e.T); c != 0 {
			return c
		}
		if c := cmp.Compare(a.shard, b.shard); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	j.Emitted += uint64(len(all))
	for _, be := range all {
		j.write(be.e)
	}
	clear(all)
	j.merge = all[:0]
}

// write hands one event, in journal order, to the sink and the follower.
func (j *Journal) write(e Event) {
	if j.sink != nil {
		_ = j.sink.WriteEvent(e)
	}
	if j.follower != nil {
		_ = j.follower.WriteEvent(e)
	}
}

// SetSink installs the event sink (nil to detach). Events emitted with no
// sink still land in the flight recorder.
func (j *Journal) SetSink(s Sink) {
	j.mu.Lock()
	j.sink = s
	j.mu.Unlock()
}

// Follow installs the follower: a second sink that sees every event the
// journal writes, in the same order, and that SetSink and AttachNDJSON
// leave in place. The farm's report fold reads the journal this way, so it
// is whole whatever sink a run attaches, and when.
func (j *Journal) Follow(s Sink) {
	j.mu.Lock()
	j.follower = s
	j.mu.Unlock()
}

// Sink returns the installed event sink, nil when detached. The serve
// path uses it to interpose a Fanout over an already-attached NDJSON sink.
func (j *Journal) Sink() Sink {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sink
}

// SetVerdictNamer installs the function used to render Event.Verdict bits
// symbolically during serialization. Kept out of Event emission so the
// datapath never pays for verdict formatting.
func (j *Journal) SetVerdictNamer(fn func(uint32) string) {
	j.mu.Lock()
	j.verdictName = fn
	j.mu.Unlock()
}

// Scope returns the named scope bound to this stream, creating it on first
// use. Idempotent per (name, stream): a name requested from a second stream
// gets its own ring there, so no two domains ever write one ring, while
// events keep the one name and DumpScope presents the rings as one record.
func (st *Stream) Scope(name string, ring int) *Scope {
	j := st.j
	j.mu.Lock()
	defer j.mu.Unlock()
	rings := j.scopes[name]
	for _, sc := range rings {
		if sc.stream == st {
			return sc
		}
	}
	if ring <= 0 {
		ring = DefaultRingSize
	}
	sc := &Scope{Name: name, j: j, stream: st, ring: make([]Event, ring)}
	if rings == nil {
		j.order = append(j.order, name)
	}
	rings = append(rings, sc)
	sort.Slice(rings, func(i, k int) bool { return rings[i].stream.shard < rings[k].stream.shard })
	j.scopes[name] = rings
	return sc
}

// DumpScope snapshots one scope's flight recorder: every stream's ring
// under that name, events in (T, shard, seq) order. Call it while the
// scope's domains are quiesced. Returns nil for an unknown scope.
func (j *Journal) DumpScope(name, reason string) *Dump {
	j.mu.Lock()
	rings := j.scopes[name]
	j.mu.Unlock()
	if len(rings) == 0 {
		return nil
	}
	d := &Dump{Scope: name, Reason: reason}
	for _, sc := range rings {
		d.Events = sc.appendLive(d.Events)
		if at := sc.stream.clock(); at > d.At {
			d.At = at
		}
	}
	// Rings are held in shard order and each is already in seq order, so a
	// stable sort on T alone yields (T, shard, seq).
	sort.SliceStable(d.Events, func(i, k int) bool { return d.Events[i].T < d.Events[k].T })
	j.retain(d)
	return d
}

// DumpAll snapshots every scope's flight recorder, in creation order.
func (j *Journal) DumpAll(reason string) []*Dump {
	j.mu.Lock()
	names := append([]string(nil), j.order...)
	j.mu.Unlock()
	out := make([]*Dump, 0, len(names))
	for _, name := range names {
		out = append(out, j.DumpScope(name, reason))
	}
	return out
}

// Dumps returns the retained flight-recorder dumps, oldest first.
func (j *Journal) Dumps() []*Dump {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*Dump(nil), j.dumps...)
}

// EvictedDumps reports how many retained dumps the cap has evicted since
// the journal was created. Safe from any goroutine.
func (j *Journal) EvictedDumps() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evicted
}

func (j *Journal) retain(d *Dump) {
	j.mu.Lock()
	j.dumps = append(j.dumps, d)
	if excess := len(j.dumps) - DefaultMaxDumps; excess > 0 {
		j.dumps = j.dumps[excess:]
		j.evicted += uint64(excess)
	}
	j.mu.Unlock()
}

// Scope is one flight-recorder ring plus an emission point. All emission
// happens on the owning domain's goroutine; Dump may be called from it too
// (the mutex in Journal covers retained-dump bookkeeping).
type Scope struct {
	Name string

	j      *Journal
	stream *Stream
	ring   []Event
	head   int // next write position
	n      int // events ever written (min(n, len(ring)) are live)
}

// Emit stamps the event with the owning domain's current virtual time and
// this scope's name, records it in the ring, and forwards it to the
// journal's sink if one is attached (or, in parallel mode, to the stream's
// merge buffer). Allocation-free when e.Detail references an existing
// string and no sink is attached. The follower sees it where the sink does.
func (sc *Scope) Emit(e Event) {
	st := sc.stream
	e.T = st.clock()
	e.Scope = sc.Name
	sc.ring[sc.head] = e
	sc.head++
	if sc.head == len(sc.ring) {
		sc.head = 0
	}
	sc.n++
	if sc.j.parallel {
		st.buf = append(st.buf, bufferedEvent{e: e, shard: st.shard, seq: st.seq})
		st.seq++
		return
	}
	sc.j.Emitted++
	sc.j.write(e)
}

// Len returns the number of events currently held in the ring.
func (sc *Scope) Len() int {
	if sc.n < len(sc.ring) {
		return sc.n
	}
	return len(sc.ring)
}

// appendLive appends the ring's live events, oldest first.
func (sc *Scope) appendLive(dst []Event) []Event {
	live := sc.Len()
	start := 0
	if sc.n >= len(sc.ring) {
		start = sc.head
	}
	for i := 0; i < live; i++ {
		dst = append(dst, sc.ring[(start+i)%len(sc.ring)])
	}
	return dst
}

// Dump copies this ring's live events (oldest first) into a retained Dump
// and fires the journal's on-dump callback. It reads only the calling
// domain's ring; DumpScope merges every stream's.
func (sc *Scope) Dump(reason string) *Dump {
	d := &Dump{Scope: sc.Name, Reason: reason, At: sc.stream.clock(),
		Events: sc.appendLive(make([]Event, 0, sc.Len()))}
	sc.j.retain(d)
	return d
}

// Dump is a flight-recorder snapshot: the last events seen by one scope at
// the moment something went wrong.
type Dump struct {
	Scope  string
	Reason string
	At     time.Duration
	Events []Event
}

// WriteDump serializes a dump as NDJSON: a header line, then one line per
// event, using the journal's epoch and verdict namer.
func (j *Journal) WriteDump(w io.Writer, d *Dump) error {
	j.mu.Lock()
	epoch, vn := j.Epoch, j.verdictName
	j.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"flight_recorder":%s,"reason":%s,"t_ns":%d,"events":%d}`+"\n",
		strconv.Quote(d.Scope), strconv.Quote(d.Reason), int64(d.At), len(d.Events))
	var buf []byte
	for _, e := range d.Events {
		buf = appendEventJSON(buf[:0], e, epoch, vn)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RenderEvent appends one event's JSON line (newline-terminated, same
// rendering as the NDJSON stream: journal epoch, symbolic verdicts) to dst
// and returns it. Unlike the emit path it takes the journal lock, so it is
// safe from any goroutine — the ops plane's SSE encoder uses it.
func (j *Journal) RenderEvent(dst []byte, e Event) []byte {
	j.mu.Lock()
	epoch, vn := j.Epoch, j.verdictName
	j.mu.Unlock()
	return appendEventJSON(dst, e, epoch, vn)
}

// NDJSONSink streams events as newline-delimited JSON. Not safe for
// concurrent use; the farm emits from the single simulator goroutine.
type NDJSONSink struct {
	w       *bufio.Writer
	epoch   time.Time
	verdict func(uint32) string
	buf     []byte
}

// AttachNDJSON creates an NDJSON sink rendering with the journal's current
// epoch and verdict namer, and installs it as the journal's sink. Call
// Flush on the returned sink before closing the underlying writer.
func (j *Journal) AttachNDJSON(w io.Writer) *NDJSONSink {
	j.mu.Lock()
	s := &NDJSONSink{w: bufio.NewWriter(w), epoch: j.Epoch, verdict: j.verdictName}
	j.sink = s
	j.mu.Unlock()
	return s
}

// WriteEvent implements Sink.
func (s *NDJSONSink) WriteEvent(e Event) error {
	s.buf = appendEventJSON(s.buf[:0], e, s.epoch, s.verdict)
	_, err := s.w.Write(s.buf)
	return err
}

// Flush drains buffered output to the underlying writer.
func (s *NDJSONSink) Flush() error { return s.w.Flush() }

// appendEventJSON renders one event as a single JSON line. Zero-valued
// optional fields are omitted so journals stay skimmable.
func appendEventJSON(b []byte, e Event, epoch time.Time, verdictName func(uint32) string) []byte {
	b = append(b, `{"t_ns":`...)
	b = strconv.AppendInt(b, int64(e.T), 10)
	if !epoch.IsZero() {
		b = append(b, `,"wall":"`...)
		b = appendWall(b, epoch.Add(e.T).UTC())
		b = append(b, '"')
	}
	b = append(b, `,"type":`...)
	b = appendQuote(b, e.Type)
	if e.Scope != "" {
		b = append(b, `,"scope":`...)
		b = appendQuote(b, e.Scope)
	}
	if e.Flow != 0 {
		b = append(b, `,"flow":`...)
		b = strconv.AppendUint(b, uint64(e.Flow), 10)
	}
	if e.VLAN != 0 {
		b = append(b, `,"vlan":`...)
		b = strconv.AppendUint(b, uint64(e.VLAN), 10)
	}
	switch e.Proto {
	case 0:
	case 6:
		b = append(b, `,"proto":"tcp"`...)
	case 17:
		b = append(b, `,"proto":"udp"`...)
	case 1:
		b = append(b, `,"proto":"icmp"`...)
	default:
		b = append(b, `,"proto":`...)
		b = strconv.AppendUint(b, uint64(e.Proto), 10)
	}
	if e.SrcIP != 0 || e.SrcPort != 0 {
		b = append(b, `,"src":"`...)
		b = appendIPPort(b, e.SrcIP, e.SrcPort)
		b = append(b, '"')
	}
	if e.DstIP != 0 || e.DstPort != 0 {
		b = append(b, `,"dst":"`...)
		b = appendIPPort(b, e.DstIP, e.DstPort)
		b = append(b, '"')
	}
	if e.Inbound {
		b = append(b, `,"inbound":true`...)
	}
	if e.Verdict != 0 {
		b = append(b, `,"verdict":`...)
		if verdictName != nil {
			b = appendQuote(b, verdictName(e.Verdict))
		} else {
			b = strconv.AppendUint(b, uint64(e.Verdict), 10)
		}
	}
	if e.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendUint(b, e.N, 10)
	}
	if e.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendQuote(b, e.Detail)
	}
	if e.Annotation != "" {
		b = append(b, `,"annotation":`...)
		b = appendQuote(b, e.Annotation)
	}
	b = append(b, '}', '\n')
	return b
}

// appendWall appends t as AppendFormat's "2006-01-02T15:04:05.000000Z"
// would, from its date and clock digits; a year outside 0..9999 takes the
// formatter.
func appendWall(b []byte, t time.Time) []byte {
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(b, "2006-01-02T15:04:05.000000Z")
	}
	hour, minute, sec := t.Clock()
	b = appendDigits(b, year, 4)
	b = append(b, '-')
	b = appendDigits(b, int(month), 2)
	b = append(b, '-')
	b = appendDigits(b, day, 2)
	b = append(b, 'T')
	b = appendDigits(b, hour, 2)
	b = append(b, ':')
	b = appendDigits(b, minute, 2)
	b = append(b, ':')
	b = appendDigits(b, sec, 2)
	b = append(b, '.')
	b = appendDigits(b, t.Nanosecond()/1000, 6)
	return append(b, 'Z')
}

// appendDigits appends the n low decimal digits of v >= 0, zero-padded.
func appendDigits(b []byte, v, n int) []byte {
	b = append(b, "000000"[:n]...)
	for i := len(b) - 1; v > 0 && i >= len(b)-n; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return b
}

// appendQuote appends s as strconv.AppendQuote does: printable ASCII
// without a quote or backslash, what nearly every journal string is, goes
// in as it is.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendIPPort(b []byte, ip uint32, port uint16) []byte {
	b = strconv.AppendUint(b, uint64(ip>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(ip>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(ip>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(ip&0xff), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(port), 10)
	return b
}
