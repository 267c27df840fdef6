package containment

import (
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/shim"
)

// framed is what a containment server made of one client leg's bytes.
type framed struct {
	decided bool
	req     shim.Request
	extra   string // the bytes behind the shim its handler was shown
	aborted bool
}

// feedSession hands stream to a fresh containment server's session through
// the client leg's OnData, one call per chunk: each byte of cuts is the next
// chunk's length (0 counts as 1), and the rest of stream is the last chunk.
// A chunk is handed over only while the leg is open, as the host would.
func feedSession(t *testing.T, stream, cuts []byte) framed {
	s, cs, gw, srv, policy := rewriteTestbed(t)
	var leg *host.Conn
	if err := cs.Listen(7000, func(c *host.Conn) {
		srv.acceptTCP(c)
		leg = c
	}); err != nil {
		t.Fatal(err)
	}
	gw.Dial(cs.Addr(), 7000)
	s.RunFor(time.Millisecond)
	if leg == nil {
		t.Fatal("client leg not established")
	}
	for len(stream) > 0 && leg.State() != host.StateClosed {
		n := len(stream)
		if len(cuts) > 0 {
			n, cuts = min(n, max(1, int(cuts[0]))), cuts[1:]
		}
		leg.OnData(stream[:n])
		stream = stream[n:]
	}
	s.RunFor(time.Millisecond)
	out := framed{decided: srv.FlowsSeen > 0, aborted: leg.State() == host.StateClosed}
	for _, req := range policy.reqs {
		out.req = req
	}
	for _, seen := range policy.seen {
		out.extra = seen
	}
	return out
}

// FuzzSessionFraming feeds the containment server's TCP framing a request
// shim and trailing bytes, cut at fuzzer-chosen offsets over several OnData
// calls. However it is cut, the session decodes the Request a one-segment
// feed decodes and shows its handler the same bytes behind it; a malformed
// shim ends in Abort; nothing panics.
func FuzzSessionFraming(f *testing.F) {
	req := shim.Request{OrigPort: 1001, RespPort: 80, VLAN: 16, NoncePort: 1}
	stream := append(req.Marshal(), "hello"...)
	// The cases of TestAcceptTCPRequestShimFraming.
	for _, cuts := range [][]byte{{shim.RequestLen + 5}, {shim.RequestLen, 5}, {10, shim.RequestLen - 10, 5}, {1, 1, shim.RequestLen + 3}} {
		f.Add(stream, cuts)
	}
	badMagic := append([]byte(nil), stream...)
	badMagic[0] ^= 0xff
	f.Add(badMagic, []byte{3})
	f.Add((&shim.Response{Verdict: shim.Drop}).Marshal(), []byte{8, 8})
	f.Add(stream[:shim.RequestLen-1], []byte{})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		whole := feedSession(t, stream, nil)
		split := feedSession(t, stream, cuts)
		if split != whole {
			t.Fatalf("cut by %v: %+v; in one segment: %+v", cuts, split, whole)
		}
		var want shim.Request
		switch {
		case len(stream) < shim.RequestLen:
			if whole.decided || whole.aborted {
				t.Fatalf("%d bytes, short of a shim: %+v", len(stream), whole)
			}
		case want.Unmarshal(stream[:shim.RequestLen]) != nil:
			if whole.decided || !whole.aborted {
				t.Fatalf("malformed shim %x: %+v, want an abort", stream[:shim.RequestLen], whole)
			}
		default:
			if !whole.decided || whole.aborted || whole.req != want || whole.extra != string(stream[shim.RequestLen:]) {
				t.Fatalf("shim %+v and %q behind it: %+v", want, stream[shim.RequestLen:], whole)
			}
		}
	})
}
