package containment

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/shim"
	"gq/internal/sim"
)

type namedDecider struct{ name string }

func (d *namedDecider) Name() string                  { return d.name }
func (d *namedDecider) Decide(*shim.Request) Decision { return Decision{} }

// TestSwapPolicy pins the runtime-swap semantics the ops plane relies on:
// an exact-range match is replaced in place (keeping dispatch order), and
// a new range is prepended so it shadows any overlapping earlier rule —
// deciderFor returns the first match.
func TestSwapPolicy(t *testing.T) {
	s := &Server{}
	s.AddPolicy(16, 17, &namedDecider{"rustock"})
	s.AddPolicy(18, 19, &namedDecider{"grum"})
	s.SetFallback(&namedDecider{"deny"})

	name := func(vlan uint16) string { return s.deciderFor(vlan).Name() }

	// In-place replacement of an exact range.
	s.SwapPolicy(16, 17, &namedDecider{"harddeny"})
	if got := name(16); got != "harddeny" {
		t.Fatalf("vlan 16 dispatches to %s after exact swap", got)
	}
	if got := name(18); got != "grum" {
		t.Fatalf("vlan 18 dispatches to %s; other ranges must be untouched", got)
	}
	if len(s.policies) != 2 {
		t.Fatalf("exact swap grew the table to %d ranges", len(s.policies))
	}

	// A non-exact overlapping range is prepended and shadows.
	s.SwapPolicy(18, 18, &namedDecider{"allow"})
	if got := name(18); got != "allow" {
		t.Fatalf("vlan 18 dispatches to %s after overlapping swap", got)
	}
	if got := name(19); got != "grum" {
		t.Fatalf("vlan 19 dispatches to %s; uncovered part of the old range must survive", got)
	}
	if got := name(40); got != "deny" {
		t.Fatalf("vlan 40 dispatches to %s, want fallback", got)
	}
}

// rewriteAll is a policy that takes every flow into content control and
// records, by nonce port, the requests it decides and the client bytes its
// handler is shown.
type rewriteAll struct {
	reqs map[uint16]shim.Request
	seen map[uint16]string
}

func (p *rewriteAll) Name() string { return "rewriteAll" }
func (p *rewriteAll) Decide(req *shim.Request) Decision {
	p.reqs[req.NoncePort] = *req
	return Decision{Verdict: shim.Rewrite, Handler: p}
}
func (p *rewriteAll) OnClientData(s *Session, data []byte) { p.seen[s.req.NoncePort] += string(data) }
func (p *rewriteAll) OnServerData(*Session, []byte)        {}
func (p *rewriteAll) OnClientClose(*Session)               {}
func (p *rewriteAll) OnServerClose(*Session)               {}

// rewriteTestbed is a containment server on port 6000 of host cs, answering
// host gw (the gateway's side) with rewriteAll as its only policy.
func rewriteTestbed(t *testing.T) (*sim.Simulator, *host.Host, *host.Host, *Server, *rewriteAll) {
	t.Helper()
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw")
	cs := host.New(s, "cs", netstack.MAC{2, 0, 0, 0, 0, 1})
	gw := host.New(s, "gw", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("cs", 10), cs.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("gw", 10), gw.NIC(), 0)
	cs.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	gw.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	srv, err := NewServer(cs, 6000, gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	policy := &rewriteAll{reqs: map[uint16]shim.Request{}, seen: map[uint16]string{}}
	srv.SetFallback(policy)
	return s, cs, gw, srv, policy
}

// TestAcceptTCPRequestShimFraming: the request shim is decoded where it
// arrives when the first segment holds all of it, and reassembled first
// when it does not; either way the bytes behind it reach the handler once,
// in order, and the session's Req is the shim that was sent.
func TestAcceptTCPRequestShimFraming(t *testing.T) {
	s, cs, gw, srv, policy := rewriteTestbed(t)

	// Each case is one connection, told apart by its nonce port: the
	// chunks its client writes, a virtual millisecond apart.
	cases := map[uint16][]int{
		1: {shim.RequestLen + 5},         // shim and payload in one segment
		2: {shim.RequestLen, 5},          // shim exactly, payload behind
		3: {10, shim.RequestLen - 10, 5}, // shim split
		4: {1, 1, shim.RequestLen + 3},   // split, then the rest with payload
	}
	answers := map[uint16][]byte{}
	for nonce, chunks := range cases {
		req := shim.Request{OrigPort: 1000 + nonce, RespPort: 80, VLAN: 16, NoncePort: nonce}
		stream := append(req.Marshal(), "hello"...)
		c := gw.Dial(cs.Addr(), 6000)
		c.OnData = func(b []byte) { answers[nonce] = append(answers[nonce], b...) }
		c.OnConnect = func() {
			off := 0
			for i, n := range chunks {
				part := stream[off : off+n]
				off += n
				s.Schedule(time.Duration(i)*time.Millisecond, func() { c.Write(part) })
			}
		}
	}
	s.RunFor(time.Second)

	if srv.FlowsSeen != uint64(len(cases)) {
		t.Fatalf("server decided %d flows, want %d", srv.FlowsSeen, len(cases))
	}
	for nonce := range cases {
		if req := policy.reqs[nonce]; req.OrigPort != 1000+nonce || req.VLAN != 16 {
			t.Errorf("case %d: policy decided %+v, not the shim sent", nonce, req)
		}
		if got := policy.seen[nonce]; got != "hello" {
			t.Errorf("case %d: handler saw %q behind the shim, want %q", nonce, got, "hello")
		}
		var resp shim.Response
		if n, err := resp.Unmarshal(answers[nonce]); err != nil || n != len(answers[nonce]) || resp.OrigPort != 1000+nonce || resp.Verdict != shim.Rewrite {
			t.Errorf("case %d: answer %x: %v", nonce, answers[nonce], err)
		}
	}
}

// TestStalledUDPRewriteSeesItsPayload: under a verdict stall a datagram's
// answer, and its Rewrite handler's look at the payload, come after the
// host has taken back the frame the datagram arrived in. The handler must
// still be shown the bytes the client sent, not the 0xDB a released buffer
// holds under go test, nor a later frame's.
func TestStalledUDPRewriteSeesItsPayload(t *testing.T) {
	s, cs, gw, srv, _ := rewriteTestbed(t)
	policy := &rewriteDatagrams{}
	srv.SetFallback(policy)
	srv.SetVerdictStall(10 * time.Millisecond)
	answers := 0
	sock, err := gw.ListenUDP(0, func(netstack.Addr, uint16, []byte) { answers++ })
	if err != nil {
		t.Fatal(err)
	}
	const flows = 3
	for nonce := uint16(1); nonce <= flows; nonce++ {
		req := shim.Request{OrigPort: 1000 + nonce, RespPort: 53, VLAN: 16, NoncePort: nonce}
		sock.SendTo(cs.Addr(), 6000, append(req.Marshal(), "hello"...))
	}
	s.RunFor(time.Second)
	if answers != flows {
		t.Fatalf("%d answers to %d datagrams", answers, flows)
	}
	if want := []string{"hello", "hello", "hello"}; !slices.Equal(policy.seen, want) {
		t.Errorf("handler saw %q behind the shims, want %q", policy.seen, want)
	}
}

// rewriteDatagrams takes every flow into content control and records the
// payload each datagram's one-shot session is shown.
type rewriteDatagrams struct{ seen []string }

func (p *rewriteDatagrams) Name() string { return "rewriteDatagrams" }
func (p *rewriteDatagrams) Decide(*shim.Request) Decision {
	return Decision{Verdict: shim.Rewrite, Handler: p}
}
func (p *rewriteDatagrams) OnClientData(_ *Session, data []byte) {
	p.seen = append(p.seen, string(data))
}
func (p *rewriteDatagrams) OnServerData(*Session, []byte) {}
func (p *rewriteDatagrams) OnClientClose(*Session)        {}
func (p *rewriteDatagrams) OnServerClose(*Session)        {}

// TestSessionFitsSizeClass: the containment server holds a Session for every
// flow it adjudicates over TCP, with one buffer for the client bytes it
// cannot act on yet.
func TestSessionFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Session{}); n > 96 {
		t.Errorf("containment.Session is %d bytes, want at most 96", n)
	}
}
