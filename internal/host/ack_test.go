package host

import (
	"testing"
	"time"

	"gq/internal/netstack"
)

// The ACK rule (RFC 1122 4.2.3.2): a segment the app sends from OnData or
// OnPeerClose carries the ACK for what it answers, and no pure ACK
// repeats it; an app that sends nothing still gets its ACK at once.

// ackSetup accepts one raw connection on port 80 with app as its callback
// setup, completes the handshake, and forgets what the peer saw so far.
// send injects a peer segment at offset off of the peer's stream and runs
// the simulator; the peer's rx then holds only what the host answered.
func ackSetup(t *testing.T, app func(c *Conn)) (peer *rawPeer, next uint32, send func(off uint32, flags uint8, payload string)) {
	t.Helper()
	s, h, peer := rawSetup(t)
	h.Listen(80, app)
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	peer.rx = nil
	send = func(off uint32, flags uint8, payload string) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: next + off, Ack: serverISN + 1,
			Flags: netstack.FlagACK | flags, Window: 65535,
		}, []byte(payload))
		s.RunFor(100 * time.Millisecond)
	}
	return peer, next, send
}

// seg is what the tests compare of a host-sent segment.
type seg struct {
	flags   uint8
	ack     uint32
	payload string
}

// answered returns the TCP segments the peer received since the last
// call and forgets them.
func answered(peer *rawPeer) []seg {
	var out []seg
	for _, p := range peer.rx {
		if p.TCP != nil {
			out = append(out, seg{p.TCP.Flags, p.TCP.Ack, string(p.Payload)})
		}
	}
	peer.rx = nil
	return out
}

func wantSegs(t *testing.T, what string, got []seg, want ...seg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: host sent %+v, want %+v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: host sent %+v, want %+v", what, got, want)
		}
	}
}

const (
	ack    = netstack.FlagACK
	ackPSH = netstack.FlagACK | netstack.FlagPSH
	ackFIN = netstack.FlagACK | netstack.FlagFIN
)

func TestEchoReplyCarriesTheACK(t *testing.T) {
	peer, next, send := ackSetup(t, func(c *Conn) { c.OnData = c.Write })
	send(0, netstack.FlagPSH, "PING")
	wantSegs(t, "echoed request", answered(peer), seg{ackPSH, next + 4, "PING"})
}

func TestSilentAppGetsOnePureACK(t *testing.T) {
	peer, next, send := ackSetup(t, func(c *Conn) { c.OnData = func([]byte) {} })
	send(0, netstack.FlagPSH, "PING")
	wantSegs(t, "unanswered request", answered(peer), seg{ack, next + 4, ""})
}

func TestRetransmittedFINIsReACKed(t *testing.T) {
	peer, next, send := ackSetup(t, func(c *Conn) {})
	send(0, netstack.FlagFIN, "")
	wantSegs(t, "FIN", answered(peer), seg{ack, next + 1, ""})
	send(0, netstack.FlagFIN, "")
	wantSegs(t, "retransmitted FIN", answered(peer), seg{ack, next + 1, ""})
}

func TestCloseOnPeerCloseFINCarriesTheACK(t *testing.T) {
	peer, next, send := ackSetup(t, func(c *Conn) { c.OnPeerClose = c.Close })
	send(0, netstack.FlagFIN, "")
	wantSegs(t, "FIN answered by Close", answered(peer), seg{ackFIN, next + 1, ""})
}

// A reply from OnData acknowledges only the bytes delivered so far: the
// stashed bytes the drain then delivers still owe their ACK.
func TestStashDrainedAfterReplyIsACKed(t *testing.T) {
	peer, next, send := ackSetup(t, func(c *Conn) {
		replied := false
		c.OnData = func([]byte) {
			if !replied {
				replied = true
				c.Write([]byte("OK"))
			}
		}
	})
	send(5, netstack.FlagPSH, "WORLD")
	wantSegs(t, "out-of-order tail", answered(peer), seg{ack, next, ""})
	send(0, netstack.FlagPSH, "HELLO")
	wantSegs(t, "head filling the gap", answered(peer),
		seg{ackPSH, next + 5, "OK"}, seg{ack, next + 10, ""})
}
