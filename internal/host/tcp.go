package host

import (
	"errors"
	"fmt"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// TCP tuning. Values are modest because the farm's links are fast and the
// experiments care about behaviour, not bulk throughput.
const (
	MSS              = 1400
	DefaultWindow    = 65535
	rtoInitial       = 1 * time.Second
	rtoMax           = 16 * time.Second
	maxRetransmits   = 5
	timeWaitDuration = 10 * time.Second
	synBacklogLimit  = 128
	// delayedACK is how long a conn holds the pure ACK it owes (RFC 9293
	// 3.8.6.3): Linux's minimum, well under the RFC's 0.5 s bound.
	delayedACK = 40 * time.Millisecond
	// maxOOOSegments bounds a conn's out-of-order stash: the number of MSS
	// segments in a full window.
	maxOOOSegments = (DefaultWindow + MSS - 1) / MSS
)

// TCPState enumerates the RFC 793 connection states.
type TCPState uint8

// Connection states.
const (
	StateClosed TCPState = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateClosing
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "CLOSING", "TIME_WAIT",
}

func (s TCPState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("TCPState(%d)", int(s))
}

// ErrConnReset is delivered to OnClose when the peer resets the connection.
var ErrConnReset = errors.New("connection reset by peer")

// ErrTimeout is delivered to OnClose when retransmissions are exhausted.
var ErrTimeout = errors.New("connection timed out")

// Conn is a TCP connection endpoint. Callbacks fire from within simulator
// events; applications must not block inside them.
//
// Every flow through the farm opens a Conn on up to three hosts, so a Conn
// is kept to one 160-byte object (TestConnFitsSizeClass): one timer, the
// retransmission timeout derived from the retry count, the state and the
// switches in single bytes, a send buffer that, like every frame buffer in
// the domain, cycles through the frame list (netsim.Frames), with the bytes
// still to be acknowledged held as two offsets into it, and the state only
// some conns need (a passive open's accept callback, the out-of-order
// stash) kept outside it.
//
// What a conn's callbacks (the accept callback, OnConnect, OnData,
// OnPeerClose) write, and a Close they make, on this conn or another of the
// host's, go out once they return, in as few segments as MSS allows, with
// the FIN on the last; an Abort sends them before its reset.
//
// The ACK a conn owes for in-order data waits up to delayedACK (RFC 9293
// 3.8.6.3) while the conn is ESTABLISHED, the segment carries no FIN and
// fills no gap in the stash, and less than 2*MSS has arrived since the
// last ACK; a reply or FIN sent in the meantime carries it. Once 2*MSS has
// arrived it waits only for the conn's segments still to land at this
// instant, and goes out after the last. An active open's handshake ACK
// rides the data or FIN that OnConnect queues, if any. Every other ACK
// goes out at once.
type Conn struct {
	host *Host
	key  connKey // the endpoint: local port, remote address and port

	// Send state. sndBase[sndOff:sndEnd] holds the bytes from sequence
	// number sndUna onward; the first sndNxt-sndUna of them are in flight.
	// The window slides over sndBase's backing array: ACKs advance sndOff,
	// queue slides the bytes back to the base instead of letting every
	// write reallocate. sndBase is taken from the domain's frame list by
	// the first write and goes back when nothing more can be sent from it:
	// when the FIN is acknowledged, when the conn is destroyed, and when a
	// larger write outgrows it (releaseSend).
	iss, sndUna, sndNxt uint32
	sndOff, sndEnd      uint32
	sndWnd              uint16
	state               TCPState
	retries             uint8 // retransmissions since the last forward progress
	sndBase             []byte

	// Receive state. rcvHeld counts the bytes delivered since the last ACK
	// while that ACK is held; 2*MSS marks a hold that ends at this instant.
	// ooo is made by the first segment or FIN that arrives beyond rcvNxt:
	// most connections never see one.
	rcvNxt  uint32
	flags   connFlags
	rcvHeld uint16
	ooo     *oooStash

	// rtx is the conn's one timer, with one job at a time: while an ACK is
	// held (ackHeld) the delayed ACK, and the retransmission timeout it
	// displaced waits in Host.rtoDue until the hold ends, then goes back on
	// rtx at its own deadline, or at once if that has passed, so a timeout
	// fires at most delayedACK late; otherwise, while something is in
	// flight, the retransmission timeout, re-armed with every segment sent
	// or acknowledged; in TIME_WAIT the end of TIME_WAIT. It does not
	// allocate when armed (see sim.Timer).
	rtx sim.Timer

	// OnConnect fires when the connection reaches ESTABLISHED (for both
	// active and passive opens).
	OnConnect func()
	// OnData delivers in-order payload bytes. They lie in the received
	// frame, which the host recycles once OnData returns: a callback that
	// keeps them copies (Write does).
	OnData func([]byte)
	// OnPeerClose fires when the peer's FIN is received (EOF). The
	// connection can still send until Close is called.
	OnPeerClose func()
	// OnClose fires exactly once when the connection is fully torn down;
	// err is nil for a clean bidirectional close.
	OnClose func(err error)

	// BytesOut counts application payload written.
	BytesOut uint64
}

// oooStash is a conn's out-of-order reassembly state. segs holds the
// segments received beyond rcvNxt, keyed by starting sequence number;
// entries may overlap the delivered stream (go-back-N resends from sndUna)
// and are trimmed on drain. It holds no segment that starts beyond the
// window and at most maxOOOSegments (processData, stash). finSeq is where
// a FIN observed beyond rcvNxt sits, while the oooFin flag is set.
type oooStash struct {
	segs   map[uint32][]byte
	finSeq uint32
}

// connFlags packs a Conn's switches into the two bytes after rcvNxt.
type connFlags uint16

const (
	finQueued  connFlags = 1 << iota // Close asked for a FIN behind the queued data
	finSent                          // the FIN is in flight (go-back-N clears it)
	oooFin                           // a FIN was seen beyond rcvNxt, at ooo.finSeq
	finRcvd                          // the peer's FIN was consumed: FIN processing is idempotent
	connClosed                       // torn down; OnClose has fired
	ackOwed                          // rcvNxt moved, or a FIN came, since a segment last acknowledged it
	ackHeld                          // the owed ACK waits on rtx, which has no other job
	ackSYN                           // the owed ACK is the active open's handshake ACK
	turnSend                         // the conn sends when the host's callback turn ends (Host.turn)
)

func (c *Conn) is(f connFlags) bool { return c.flags&f != 0 }
func (c *Conn) set(f connFlags)     { c.flags |= f }
func (c *Conn) unset(f connFlags)   { c.flags &^= f }

// State returns the connection state.
func (c *Conn) State() TCPState { return c.state }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (netstack.Addr, uint16) { return c.key.remoteIP, c.key.remotePort }

// Listen registers an accept callback for a TCP port. The callback receives
// connections once they reach ESTABLISHED.
func (h *Host) Listen(port uint16, accept func(*Conn)) error {
	if _, taken := h.listeners[port]; taken {
		return fmt.Errorf("host %s: TCP port %d already listening", h.Name, port)
	}
	h.listeners[port] = accept
	return nil
}

// Unlisten removes a listener; established connections are unaffected.
func (h *Host) Unlisten(port uint16) { delete(h.listeners, port) }

// Dial opens a connection to dst:port from an ephemeral local port and
// returns it in SYN_SENT. Attach callbacks before the next simulator event.
func (h *Host) Dial(dst netstack.Addr, port uint16) *Conn {
	c := h.newConn(h.allocEphemeral(), dst, port)
	c.state = StateSynSent
	c.iss = h.sim.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	h.addConn(c)
	c.sendSegment(netstack.FlagSYN, c.iss, 0, nil)
	c.armRetransmit()
	return c
}

func (h *Host) newConn(localPort uint16, rip netstack.Addr, rport uint16) *Conn {
	c := &Conn{
		host:   h,
		key:    connKey{localPort: localPort, remoteIP: rip, remotePort: rport},
		sndWnd: DefaultWindow,
	}
	c.rtx.Init(h.sim, c.retransmit)
	return c
}

// Write queues application data for transmission. Writing after Close or on
// a reset connection is a silent no-op (matching the fire-and-forget style
// of the simulated applications).
func (c *Conn) Write(data []byte) {
	if c.is(connClosed|finQueued) || len(data) == 0 {
		return
	}
	switch c.state {
	case StateSynSent, StateSynRcvd, StateEstablished, StateCloseWait:
		c.queue(data)
		c.BytesOut += uint64(len(data))
		c.send()
	}
}

// queue appends data behind the unacknowledged bytes. When the room behind
// them runs out, they move back to the start of the backing array if the
// acknowledged prefix (sndOff) is at least as large as they are (so the
// bytes moved never exceed the bytes already sent and acknowledged, keeping
// writes amortised O(1)); otherwise they move to an array at least twice as
// large, taken from the frame list, and the old one goes back.
func (c *Conn) queue(data []byte) {
	live := c.sndEnd - c.sndOff
	if int(c.sndEnd)+len(data) > cap(c.sndBase) {
		if need := int(live) + len(data); c.sndOff < live || need > cap(c.sndBase) {
			buf := append(c.host.frames.Take(max(need, 2*cap(c.sndBase))), c.sndBase[c.sndOff:c.sndEnd]...)
			c.releaseSend()
			c.sndBase = buf[:0]
		} else {
			copy(c.sndBase[:live], c.sndBase[c.sndOff:c.sndEnd])
		}
		c.sndOff, c.sndEnd = 0, live
	}
	c.sndEnd += uint32(copy(c.sndBase[c.sndEnd:cap(c.sndBase)], data))
}

// releaseSend gives the send buffer back to the frame list. Nothing may be
// sent from it afterwards: a segment's bytes are copied into its frame
// when it is sent, so only bytes still to be sent or resent hold it.
func (c *Conn) releaseSend() {
	if c.sndBase != nil {
		c.host.frames.Put(c.sndBase)
		c.sndBase, c.sndOff, c.sndEnd = nil, 0, 0
	}
}

// Close initiates a graceful shutdown: queued data is flushed, then a FIN.
func (c *Conn) Close() {
	if c.is(connClosed | finQueued) {
		return
	}
	switch c.state {
	case StateSynSent:
		if c.sndEnd > c.sndOff {
			// Data was written before the SYN-ACK arrived: queue the FIN
			// behind it and let the flush on establishment send both.
			c.set(finQueued)
			return
		}
		// Nothing sent yet beyond SYN; tear down silently.
		c.destroy(nil)
	case StateSynRcvd, StateEstablished, StateCloseWait:
		c.set(finQueued)
		c.send()
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.is(connClosed) {
		return
	}
	if c.state != StateSynSent && c.state != StateClosed {
		if c.is(turnSend) {
			c.unset(turnSend)
			c.trySend() // what the callback wrote goes out before the reset
		}
		if c.is(ackSYN) {
			// An RST alone would reach a peer still in SYN_RCVD, which drops
			// the conn unaccepted: it must see the open before the reset.
			c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
		}
		c.sendSegment(netstack.FlagRST|netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
	}
	c.destroy(ErrConnReset)
}

// trySend transmits as much queued data (and a queued FIN, on the last data
// segment if there is one) as the peer's window allows: in ESTABLISHED and
// CLOSE_WAIT, and in FIN_WAIT_1, CLOSING and LAST_ACK once go-back-N has
// taken the FIN back (retransmit).
func (c *Conn) trySend() {
	switch c.state {
	case StateEstablished, StateCloseWait:
	case StateFinWait1, StateClosing, StateLastAck:
		if c.is(finSent) {
			return
		}
	default:
		return
	}
	inFlight := c.sndNxt - c.sndUna
	avail := c.sndEnd - c.sndOff - inFlight
	window := uint32(c.sndWnd)
	finDue := c.flags&(finQueued|finSent) == finQueued
	flags := uint8(netstack.FlagACK | netstack.FlagPSH)
	sent := false
	for avail > 0 && inFlight < window {
		n := min(avail, MSS, window-inFlight)
		if n == avail && finDue {
			flags |= netstack.FlagFIN // the FIN rides the last data segment
		}
		off := c.sndOff + inFlight
		c.sendSegment(flags, c.sndNxt, c.rcvNxt, c.sndBase[off:off+n])
		c.sndNxt += n
		inFlight += n
		avail -= n
		sent = true
	}
	if finDue && avail == 0 {
		if flags&netstack.FlagFIN == 0 {
			c.sendSegment(netstack.FlagFIN|netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
		}
		c.sndNxt++
		c.set(finSent)
		sent = true
		switch c.state {
		case StateEstablished:
			c.state = StateFinWait1
		case StateCloseWait:
			c.state = StateLastAck
		}
	}
	if sent {
		c.armRetransmit()
	}
}

func (c *Conn) sendSegment(flags uint8, seq, ack uint32, payload []byte) {
	t := netstack.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: seq, Ack: ack, Flags: flags, Window: DefaultWindow,
	}
	frame := t.Marshal(c.host.newIPFrame(netstack.TCPHeaderLen+len(payload)), c.host.addr, c.key.remoteIP, payload)
	c.host.sendIP(c.key.remoteIP, netstack.ProtoTCP, frame)
	if flags&netstack.FlagACK != 0 && ack == c.rcvNxt {
		if c.is(ackHeld) {
			c.endHold()
		}
		c.unset(ackOwed | ackHeld | ackSYN)
		c.rcvHeld = 0
	}
}

// send transmits what Write or Close queued, or, while a callback turn runs
// on the host, leaves it for the turn's end.
func (c *Conn) send() {
	h := c.host
	switch {
	case h.turnOf == nil:
		c.trySend()
	case !c.is(turnSend):
		c.set(turnSend)
		if c != h.turnOf {
			h.turn = append(h.turn, c)
		}
	}
}

// beginTurn starts a callback turn: c's callbacks are about to run, and
// until endTurn what is written to or closed on any of the host's conns
// waits.
func (h *Host) beginTurn(c *Conn) { h.turnOf = c }

// endTurn ends a callback turn: the conn whose callbacks ran sends what
// they wrote to it, then every other conn they wrote to or closed sends,
// in the order it was first touched, each in as few segments as MSS
// allows.
func (h *Host) endTurn() {
	if h.turnOf.flags&turnSend != 0 || len(h.turn) > 0 {
		h.flushTurn() // kept apart so that endTurn inlines
	}
	h.turnOf = nil
}

func (h *Host) flushTurn() {
	if c := h.turnOf; c.is(turnSend) {
		c.unset(turnSend)
		c.trySend()
	}
	for _, c := range h.turn {
		c.unset(turnSend)
		c.trySend()
	}
	clear(h.turn)
	h.turn = h.turn[:0]
}

// rto is the retransmission timeout: exponential backoff with a cap, so
// under heavy injected loss the interval doubles (1s, 2s, 4s, ... rtoMax)
// instead of hammering the link at a fixed cadence.
func (c *Conn) rto() time.Duration { return min(rtoInitial<<c.retries, rtoMax) }

// armRetransmit starts the retransmission timeout afresh, rto() from now:
// on rtx, or in Host.rtoDue while a held ACK has rtx.
func (c *Conn) armRetransmit() {
	if c.is(ackHeld) {
		c.host.keepRTO(c, c.host.sim.Now()+c.rto()) // rtx is the hold's
		return
	}
	c.rtx.Reset(c.rto())
}

// stopRetransmit stops the retransmission timeout: nothing is in flight.
func (c *Conn) stopRetransmit() {
	if c.is(ackHeld) {
		delete(c.host.rtoDue, c) // rtx is the hold's
		return
	}
	c.rtx.Stop()
}

// hold holds the owed ACK on rtx for d. A retransmission timeout rtx was
// timing waits in Host.rtoDue, with its deadline, until the hold ends
// (endHold).
func (c *Conn) hold(d time.Duration) {
	if !c.is(ackHeld) {
		c.set(ackHeld)
		if c.rtx.Pending() {
			c.host.keepRTO(c, c.rtx.At())
		}
	}
	c.rtx.Reset(d)
}

// keepRTO records that c's retransmission timeout is due at due while a
// held ACK has c's timer.
func (h *Host) keepRTO(c *Conn, due time.Duration) {
	if h.rtoDue == nil {
		h.rtoDue = make(map[*Conn]time.Duration)
	}
	h.rtoDue[c] = due
}

// endHold gives rtx back to the retransmission timeout the hold displaced,
// if one waits: at its deadline, or at once if that has passed.
func (c *Conn) endHold() {
	due, ok := c.host.rtoDue[c]
	if !ok {
		c.rtx.Stop()
		return
	}
	delete(c.host.rtoDue, c)
	c.rtx.Reset(due - c.host.sim.Now()) // a negative delay fires now
}

// resetRTO is called whenever the peer acknowledges forward progress: the
// retry budget refills and the timeout collapses back to the initial value.
func (c *Conn) resetRTO() { c.retries = 0 }

// retransmit is rtx's callback: in TIME_WAIT its end, with an ACK held
// the delayed ACK, otherwise a retransmission timeout.
func (c *Conn) retransmit() {
	if c.is(connClosed) {
		return
	}
	if c.state == StateTimeWait {
		c.destroy(nil)
		return
	}
	if c.is(ackHeld) {
		c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
		return
	}
	c.retries++
	if c.retries > maxRetransmits {
		c.destroy(ErrTimeout)
		return
	}
	switch c.state {
	case StateSynSent:
		c.sendSegment(netstack.FlagSYN, c.iss, 0, nil)
	case StateSynRcvd:
		c.sendSegment(netstack.FlagSYN|netstack.FlagACK, c.iss, c.rcvNxt, nil)
	default:
		// Go-back-N from sndUna, the FIN included: the state stays, and
		// trySend resends the FIN behind the data.
		c.sndNxt = c.sndUna
		c.unset(finSent)
		c.trySend()
	}
	c.armRetransmit()
}

// destroy finalises the connection and fires OnClose exactly once.
func (c *Conn) destroy(err error) {
	if c.is(connClosed) {
		return
	}
	c.set(connClosed)
	c.unset(oooFin)
	c.state = StateClosed
	c.ooo = nil // sweep any stale reassembly stash with the conn
	c.releaseSend()
	c.rtx.Stop()
	delete(c.host.rtoDue, c)
	delete(c.host.accepting, c)
	c.host.dropConn(c)
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// handleTCP dispatches an inbound segment to its connection, or to a
// listener for SYNs, or answers with RST.
func (h *Host) handleTCP(p *netstack.Packet) {
	t := p.TCP
	key := connKey{localPort: t.DstPort, remoteIP: p.IP.Src, remotePort: t.SrcPort}
	if c, ok := h.conns[key]; ok {
		c.handleSegment(t, p.Payload)
		return
	}
	if t.Flags&netstack.FlagSYN != 0 && t.Flags&netstack.FlagACK == 0 {
		accept, ok := h.listeners[t.DstPort]
		if !ok && h.anyListener != nil {
			accept, ok = h.anyListener, true
		}
		if ok {
			if len(h.conns) >= synBacklogLimit*64 {
				return // implausible in simulation; guard anyway
			}
			c := h.newConn(t.DstPort, p.IP.Src, t.SrcPort)
			c.state = StateSynRcvd
			c.rcvNxt = t.Seq + 1
			c.iss = h.sim.Rand().Uint32()
			c.sndUna, c.sndNxt = c.iss, c.iss+1
			c.sndWnd = t.Window
			if h.accepting == nil {
				h.accepting = make(map[*Conn]func(*Conn))
			}
			h.accepting[c] = accept
			h.addConn(c)
			c.sendSegment(netstack.FlagSYN|netstack.FlagACK, c.iss, c.rcvNxt, nil)
			c.armRetransmit()
			return
		}
	}
	// No socket: answer non-RST segments with RST.
	if t.Flags&netstack.FlagRST == 0 {
		h.sendRST(p)
	}
}

// sendRST answers a segment with a reset, per RFC 793 sequence rules.
func (h *Host) sendRST(p *netstack.Packet) {
	t := p.TCP
	var r netstack.TCP
	r.SrcPort, r.DstPort = t.DstPort, t.SrcPort
	if t.Flags&netstack.FlagACK != 0 {
		r.Flags = netstack.FlagRST
		r.Seq = t.Ack
	} else {
		r.Flags = netstack.FlagRST | netstack.FlagACK
		r.Ack = t.Seq + segLen(t, len(p.Payload))
	}
	frame := r.Marshal(h.newIPFrame(netstack.TCPHeaderLen), h.addr, p.IP.Src, nil)
	h.sendIP(p.IP.Src, netstack.ProtoTCP, frame)
}

// segLen is the sequence space consumed by a segment.
func segLen(t *netstack.TCP, payloadLen int) uint32 {
	n := uint32(payloadLen)
	if t.Flags&netstack.FlagSYN != 0 {
		n++
	}
	if t.Flags&netstack.FlagFIN != 0 {
		n++
	}
	return n
}

// seqLEQ compares sequence numbers with wraparound.
func seqLEQ(a, b uint32) bool { return int32(b-a) >= 0 }
func seqLT(a, b uint32) bool  { return int32(b-a) > 0 }

func (c *Conn) handleSegment(t *netstack.TCP, payload []byte) {
	if c.is(connClosed) {
		return
	}
	c.sndWnd = t.Window

	// RST processing.
	if t.Flags&netstack.FlagRST != 0 {
		if c.state == StateSynSent && t.Flags&netstack.FlagACK != 0 && t.Ack != c.sndNxt {
			return // RST for a different incarnation
		}
		if c.state == StateTimeWait {
			// RFC 1337: a late duplicate of our own traffic can draw an
			// RST from the peer's closed socket; letting it assassinate
			// TIME_WAIT would turn a clean shutdown into a reset.
			return
		}
		c.destroy(ErrConnReset)
		return
	}

	switch c.state {
	case StateSynSent:
		if t.Flags&netstack.FlagSYN == 0 {
			return
		}
		c.rcvNxt = t.Seq + 1
		if t.Flags&netstack.FlagACK != 0 {
			if t.Ack != c.sndNxt {
				c.sendSegment(netstack.FlagRST, t.Ack, 0, nil)
				c.destroy(ErrConnReset)
				return
			}
			c.sndUna = t.Ack
			c.state = StateEstablished
			c.resetRTO()
			c.rtx.Stop()
			// The handshake ACK rides the first data or FIN that OnConnect
			// or an earlier Write queued, as a pending write carries it on
			// Linux; a pure ACK goes out only if nothing did.
			c.set(ackOwed | ackSYN)
			c.host.beginTurn(c)
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.host.endTurn()
			c.trySend()
			if c.flags&(ackOwed|connClosed) == ackOwed {
				c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
			}
		}
		return

	case StateSynRcvd:
		if t.Flags&netstack.FlagACK != 0 && t.Ack == c.sndNxt {
			c.sndUna = t.Ack
			c.state = StateEstablished
			c.resetRTO()
			c.rtx.Stop()
			c.host.beginTurn(c)
			if accept, ok := c.host.accepting[c]; ok {
				delete(c.host.accepting, c)
				accept(c)
			}
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.host.endTurn()
			if c.is(connClosed) {
				return // app tore the connection down from a callback
			}
			// Flush anything queued before establishment: the handshake
			// ACK sets sndUna == t.Ack, so the ACK-processing block below
			// will not run and data or a FIN queued while in SYN_RCVD
			// (close-before-accept) would otherwise wait for an RTO.
			c.trySend()
			// Fall through to process any data carried on the ACK.
		} else {
			return
		}
	}

	// ACK processing for synchronized states.
	if t.Flags&netstack.FlagACK != 0 && seqLT(c.sndUna, t.Ack) && seqLEQ(t.Ack, c.sndNxt) {
		acked := t.Ack - c.sndUna
		dataAcked := acked
		if c.is(finSent) && t.Ack == c.sndNxt {
			dataAcked-- // FIN consumed one sequence number
		}
		if dataAcked < c.sndEnd-c.sndOff {
			c.sndOff += dataAcked
		} else {
			c.sndOff, c.sndEnd = 0, 0 // drained: the next write starts at the base
		}
		c.sndUna = t.Ack
		c.resetRTO()
		if c.sndUna == c.sndNxt {
			c.stopRetransmit()
			// Entire send space acknowledged: advance closing states.
			// Nothing more can be sent once the FIN is acknowledged.
			if c.is(finSent) {
				c.releaseSend()
				switch c.state {
				case StateFinWait1:
					c.state = StateFinWait2
				case StateClosing:
					c.enterTimeWait()
				case StateLastAck:
					c.destroy(nil)
					return
				}
			}
		} else {
			c.armRetransmit()
		}
		c.trySend()
	}

	// Data and FIN processing.
	c.processData(t, payload)
}

func (c *Conn) processData(t *netstack.TCP, payload []byte) {
	if c.is(connClosed) {
		return
	}
	seq := t.Seq
	fin := t.Flags&netstack.FlagFIN != 0
	if len(payload) == 0 && !fin {
		return
	}

	if seqLT(c.rcvNxt, seq) {
		// Out of order: stash and ack a duplicate. The FIN position is
		// recorded separately so a pure FIN cannot shadow a stashed data
		// segment at the same sequence. A segment that starts beyond the
		// window the conn advertises is refused whole.
		if seqLT(seq, c.rcvNxt+DefaultWindow) {
			if len(payload) > 0 {
				c.stash(seq, payload)
			}
			if fin {
				c.set(oooFin)
				c.needOOO().finSeq = seq + uint32(len(payload))
			}
		}
		c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
		return
	}

	// Trim any already-received prefix.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if skip >= uint32(len(payload)) {
			payload = nil
		} else {
			payload = payload[skip:]
		}
		seq = c.rcvNxt
		if len(payload) == 0 && !fin {
			// Pure duplicate.
			c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
			return
		}
	}

	// A segment that reaches rcvNxt while the stash holds something fills
	// (part of) a gap, and its ACK goes out at once (RFC 5681 4.2).
	gap := c.ooo != nil && (len(c.ooo.segs) > 0 || c.is(oooFin))
	// What OnData and OnPeerClose write or close goes out once they have
	// all returned: c's own reply carries the ACK for all they were handed.
	c.host.beginTurn(c)
	if len(payload) > 0 {
		c.deliver(payload)
		c.drainOOO() // nothing to drain if the app aborted: destroy drops the stash
	}
	if fin && !c.is(connClosed) {
		c.handleFIN()
	}
	c.host.endTurn()
	if c.is(connClosed) {
		return
	}
	// deliver and handleFIN made an ACK owed; a reply or FIN the app sent
	// from OnData or OnPeerClose already carried it (RFC 1122 4.2.3.2).
	if !c.is(ackOwed) {
		return
	}
	if !fin && !gap && c.state == StateEstablished {
		// Under 2*MSS since the last ACK, hold it on rtx for delayedACK
		// (RFC 9293 3.8.6.3), in place of the retransmission timeout if
		// something is in flight: the hold's end puts that back (endHold).
		if held := int(c.rcvHeld) + len(payload); held < 2*MSS {
			c.rcvHeld = uint16(held)
			if !c.is(ackHeld) {
				c.hold(delayedACK)
			}
			return
		}
		// Due now, but more of the conn's segments land at this instant:
		// one ACK, sent after the last of them, covers them all. rtx armed
		// now fires after every frame already due now; rcvHeld = 2*MSS
		// marks the hold as this instant's.
		if c.host.nic.LandsNow(c.ownSegment) {
			if c.rcvHeld < 2*MSS {
				c.rcvHeld = 2 * MSS
				c.hold(0)
			}
			return
		}
	}
	c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
}

// ownSegment reports whether frame carries a TCP segment of c's: from its
// peer's address and port to its local port.
func (c *Conn) ownSegment(frame []byte) bool {
	src, srcPort, dstPort, ok := netstack.TCPPorts(frame)
	return ok && src == c.key.remoteIP && srcPort == c.key.remotePort && dstPort == c.key.localPort
}

// stash keeps a copy of an out-of-order segment's bytes, the longest run
// per starting sequence number, until rcvNxt reaches them. Once
// maxOOOSegments starts are held it refuses new ones: a sink's or the
// containment server's conns take segments an inmate chose, and a sender
// resends what was refused.
func (c *Conn) stash(seq uint32, payload []byte) {
	o := c.needOOO()
	have, ok := o.segs[seq]
	if ok && len(have) >= len(payload) || !ok && len(o.segs) >= maxOOOSegments {
		return
	}
	o.segs[seq] = append([]byte(nil), payload...)
}

// needOOO returns c.ooo, making it on first use.
func (c *Conn) needOOO() *oooStash {
	if c.ooo == nil {
		c.ooo = &oooStash{segs: make(map[uint32][]byte)}
	}
	return c.ooo
}

// deliver hands in-order payload to the application and advances rcvNxt.
func (c *Conn) deliver(payload []byte) {
	c.rcvNxt += uint32(len(payload))
	c.set(ackOwed)
	if c.OnData != nil {
		c.OnData(payload)
	}
}

// drainOOO delivers stashed segments made contiguous by an advance of
// rcvNxt. Because go-back-N retransmits resend from sndUna, stashed runs
// may only partially overlap the delivered stream: each candidate is
// trimmed against rcvNxt and fully-duplicate entries are swept, so
// nothing strands in the map. The candidate with the lowest sequence
// number is always drained first, keeping delivery order independent of
// map iteration order (a determinism requirement). If the drain reaches
// a recorded out-of-order FIN, the FIN is processed immediately instead
// of waiting for the peer's retransmission.
func (c *Conn) drainOOO() {
	o := c.ooo
	if o == nil {
		return
	}
	for len(o.segs) > 0 {
		bestSeq, found := uint32(0), false
		for s := range o.segs {
			if seqLEQ(s, c.rcvNxt) && (!found || seqLT(s, bestSeq)) {
				bestSeq, found = s, true
			}
		}
		if !found {
			break
		}
		seg := o.segs[bestSeq]
		delete(o.segs, bestSeq)
		if skip := c.rcvNxt - bestSeq; skip < uint32(len(seg)) {
			c.deliver(seg[skip:])
			if c.is(connClosed) {
				return
			}
		}
		// else: entirely below rcvNxt — stale duplicate, swept.
	}
	if c.is(oooFin) && c.rcvNxt == o.finSeq {
		c.handleFIN()
	}
}

// handleFIN performs the receive-side FIN transition exactly once:
// consume the sequence number, move the state machine, and signal EOF.
// A retransmitted FIN only owes its ACK again.
func (c *Conn) handleFIN() {
	c.set(ackOwed)
	if c.is(finRcvd) {
		return
	}
	c.set(finRcvd)
	c.unset(oooFin)
	c.rcvNxt++
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked and peer FIN arrived: simultaneous close.
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait()
	}
	if c.OnPeerClose != nil {
		c.OnPeerClose()
	}
}

// enterTimeWait re-arms rtx, whose firing in TIME_WAIT destroys the conn,
// once: nothing that arrives later (a retransmitted FIN) extends it.
func (c *Conn) enterTimeWait() {
	if c.state == StateTimeWait {
		return
	}
	c.state = StateTimeWait
	c.rtx.Reset(timeWaitDuration)
}
