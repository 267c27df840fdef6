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
// is kept to one 192-byte object (TestConnFitsSizeClass): one timer, the
// retransmission timeout derived from the retry count, the state and the
// switches in single bytes, and a send buffer that, like every frame buffer
// in the domain, cycles through the frame list (netsim.Frames), with the
// bytes still to be acknowledged held as two offsets into it.
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

	// Receive state. ooo stashes segments received beyond rcvNxt, keyed
	// by starting sequence number; entries may overlap the delivered
	// stream (go-back-N resends from sndUna) and are trimmed on drain. It
	// is made by the first stash: most connections never see one. It holds
	// no segment that starts beyond the window and at most maxOOOSegments
	// (processData, stash). oooFinSeq is where a FIN observed beyond
	// rcvNxt sits, while the oooFin flag is set.
	rcvNxt, oooFinSeq uint32
	flags             connFlags
	ooo               map[uint32][]byte

	// rtx is the conn's one timer: the retransmission timeout, re-armed
	// with every segment sent or acknowledged, and in TIME_WAIT the end of
	// TIME_WAIT. It does not allocate when armed (see sim.Timer).
	rtx      sim.Timer
	acceptFn func(*Conn) // deferred listener callback for passive opens

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

// connFlags packs a Conn's switches into one byte.
type connFlags uint8

const (
	finQueued  connFlags = 1 << iota // Close asked for a FIN behind the queued data
	finSent                          // the FIN is in flight (go-back-N clears it)
	oooFin                           // a FIN was seen beyond rcvNxt, at oooFinSeq
	finRcvd                          // the peer's FIN was consumed: FIN processing is idempotent
	connClosed                       // torn down; OnClose has fired
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

// LocalAddr returns the host address.
func (c *Conn) LocalAddr() netstack.Addr { return c.host.addr }

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
		c.trySend()
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
		c.trySend()
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.is(connClosed) {
		return
	}
	if c.state != StateSynSent && c.state != StateClosed {
		c.sendSegment(netstack.FlagRST|netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
	}
	c.destroy(ErrConnReset)
}

// trySend transmits as much queued data (and a queued FIN) as the peer's
// window allows.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return
	}
	inFlight := c.sndNxt - c.sndUna
	avail := c.sndEnd - c.sndOff - inFlight
	window := uint32(c.sndWnd)
	sent := false
	for avail > 0 && inFlight < window {
		n := avail
		if n > MSS {
			n = MSS
		}
		if inFlight+n > window {
			n = window - inFlight
		}
		off := c.sndOff + inFlight
		seg := c.sndBase[off : off+n]
		c.sendSegment(netstack.FlagACK|netstack.FlagPSH, c.sndNxt, c.rcvNxt, seg)
		c.sndNxt += n
		inFlight += n
		avail -= n
		sent = true
	}
	if c.flags&(finQueued|finSent) == finQueued && avail == 0 {
		c.sendSegment(netstack.FlagFIN|netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
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
}

// rto is the retransmission timeout: exponential backoff with a cap, so
// under heavy injected loss the interval doubles (1s, 2s, 4s, ... rtoMax)
// instead of hammering the link at a fixed cadence.
func (c *Conn) rto() time.Duration { return min(rtoInitial<<c.retries, rtoMax) }

func (c *Conn) armRetransmit() { c.rtx.Reset(c.rto()) }

// resetRTO is called whenever the peer acknowledges forward progress: the
// retry budget refills and the timeout collapses back to the initial value.
func (c *Conn) resetRTO() { c.retries = 0 }

// retransmit is rtx's callback: in TIME_WAIT its end, otherwise a
// retransmission timeout.
func (c *Conn) retransmit() {
	if c.is(connClosed) {
		return
	}
	if c.state == StateTimeWait {
		c.destroy(nil)
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
		// Go-back-N from sndUna.
		c.sndNxt = c.sndUna
		c.unset(finSent)
		if c.state == StateFinWait1 {
			c.state = StateEstablished
		}
		if c.state == StateLastAck {
			c.state = StateCloseWait
		}
		c.trySend()
		if c.sndNxt == c.sndUna {
			// Nothing to resend (pure ACK loss); keep the timer for FIN states.
			c.armRetransmit()
			return
		}
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
			c.acceptFn = accept
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
			c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.trySend()
		}
		return

	case StateSynRcvd:
		if t.Flags&netstack.FlagACK != 0 && t.Ack == c.sndNxt {
			c.sndUna = t.Ack
			c.state = StateEstablished
			c.resetRTO()
			c.rtx.Stop()
			if c.acceptFn != nil {
				c.acceptFn(c)
				c.acceptFn = nil
			}
			if c.OnConnect != nil {
				c.OnConnect()
			}
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
			c.rtx.Stop()
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
				c.oooFinSeq = seq + uint32(len(payload))
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

	if len(payload) > 0 {
		c.deliver(payload)
		if c.is(connClosed) {
			return // app aborted from callback
		}
		c.drainOOO()
		if c.is(connClosed) {
			return
		}
	}

	if fin {
		c.handleFIN()
	}
	if !c.is(connClosed) {
		c.sendSegment(netstack.FlagACK, c.sndNxt, c.rcvNxt, nil)
	}
}

// stash keeps a copy of an out-of-order segment's bytes, the longest run
// per starting sequence number, until rcvNxt reaches them. Once
// maxOOOSegments starts are held it refuses new ones: a sink's or the
// containment server's conns take segments an inmate chose, and a sender
// resends what was refused.
func (c *Conn) stash(seq uint32, payload []byte) {
	have, ok := c.ooo[seq]
	if ok && len(have) >= len(payload) || !ok && len(c.ooo) >= maxOOOSegments {
		return
	}
	if c.ooo == nil {
		c.ooo = make(map[uint32][]byte)
	}
	c.ooo[seq] = append([]byte(nil), payload...)
}

// deliver hands in-order payload to the application and advances rcvNxt.
func (c *Conn) deliver(payload []byte) {
	c.rcvNxt += uint32(len(payload))
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
	for len(c.ooo) > 0 {
		bestSeq, found := uint32(0), false
		for s := range c.ooo {
			if seqLEQ(s, c.rcvNxt) && (!found || seqLT(s, bestSeq)) {
				bestSeq, found = s, true
			}
		}
		if !found {
			return
		}
		seg := c.ooo[bestSeq]
		delete(c.ooo, bestSeq)
		if skip := c.rcvNxt - bestSeq; skip < uint32(len(seg)) {
			c.deliver(seg[skip:])
			if c.is(connClosed) {
				return
			}
		}
		// else: entirely below rcvNxt — stale duplicate, swept.
	}
	if c.is(oooFin) && c.rcvNxt == c.oooFinSeq {
		c.handleFIN()
	}
}

// handleFIN performs the receive-side FIN transition exactly once:
// consume the sequence number, move the state machine, and signal EOF.
func (c *Conn) handleFIN() {
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
