package containment

import (
	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/shim"
)

// Session is one REWRITE-contained flow from the containment server's
// perspective: the client leg (via the gateway's redirection, carrying the
// shims) and an optional server leg (dialled through the gateway's nonce
// port, Fig. 5). A handler rewrites content between the two; the
// destination need not exist — the server can simply impersonate one by
// creating response traffic as needed (the auto-infection HTTP server is
// implemented exactly this way, §6.6).
type Session struct {
	// req is where a TCP session's request shim is decoded.
	req shim.Request

	// buf holds client bytes the session cannot act on yet: until started,
	// the first bytes while they are still short of a whole shim; while
	// stalled, the bytes that arrive while its verdict answer is
	// deliberately delayed (fault injection), which content control sees
	// once the answer goes out. The two phases never overlap.
	buf []byte

	server  *Server
	client  *host.Conn
	srv     *host.Conn
	handler StreamHandler

	// udpReply, when set, makes WriteClient answer a datagram flow.
	udpReply func([]byte)

	started, stalled           bool
	clientClosed, serverClosed bool
}

// onClientData is the client leg's OnData: the request shim first, then
// the flow's own bytes.
func (sess *Session) onClientData(data []byte) {
	if sess.started {
		sess.clientData(data)
		return
	}
	// The request shim nearly always arrives whole in the first segment
	// and is decoded where it lies; buf only ever holds a split one.
	if len(sess.buf) > 0 || len(data) < shim.RequestLen {
		sess.buf = append(sess.buf, data...)
		if len(sess.buf) < shim.RequestLen {
			return
		}
		data, sess.buf = sess.buf, nil
	}
	if err := sess.req.Unmarshal(data[:shim.RequestLen]); err != nil {
		sess.client.Abort()
		return
	}
	sess.start(data[shim.RequestLen:])
}

// onClientPeerClose is the client leg's OnPeerClose.
func (sess *Session) onClientPeerClose() {
	if sess.started && sess.handler != nil {
		sess.handler.OnClientClose(sess)
	}
	sess.client.Close()
}

// onClientClose is the client leg's OnClose.
func (sess *Session) onClientClose(error) {
	if sess.started && sess.handler != nil && !sess.clientClosed {
		sess.clientClosed = true
		sess.handler.OnClientClose(sess)
	}
}

// start decides the flow's verdict and, normally, answers at once. Under an
// injected verdict stall the decision is made immediately (triggers still
// observe the flow) but the answer is scheduled for later; bytes the client
// sends meanwhile buffer until then.
func (sess *Session) start(extra []byte) {
	s := sess.server
	sess.started = true
	dec, policy := s.decide(&sess.req, netstack.ProtoTCP)
	if d := s.verdictStall; d > 0 {
		sess.stalled = true
		sess.buf = append([]byte(nil), extra...)
		s.Host.Sim().Schedule(d, func() {
			buf := sess.buf
			sess.buf = nil
			sess.stalled = false
			sess.finishStart(dec, policy, buf)
		})
		return
	}
	sess.finishStart(dec, policy, extra)
}

// finishStart answers the request shim with the verdict and, for rewrite
// verdicts, begins content control. If the gateway already reaped the flow
// (stall outlasted the await-verdict timeout) the client connection is
// closed and the Write is a silent no-op: no unaccounted shim hits the wire.
func (sess *Session) finishStart(dec Decision, policy string, extra []byte) {
	req, s := &sess.req, sess.server
	resp := shim.Response{
		OrigIP: req.OrigIP, RespIP: dec.RespIP,
		OrigPort: req.OrigPort, RespPort: dec.RespPort,
		Verdict: dec.Verdict, PolicyName: policy, Annotation: dec.Annotation,
	}
	s.out = resp.AppendTo(s.out[:0])
	sess.client.Write(s.out)

	if !dec.Verdict.Has(shim.Rewrite) {
		// Endpoint-control verdicts: the gateway takes over and will cut
		// this leg; nothing further to do.
		return
	}
	sess.handler = dec.Handler
	if sess.handler == nil {
		// A rewrite verdict without a handler cannot contain; close.
		sess.client.Close()
		return
	}
	if len(extra) > 0 {
		sess.clientData(extra)
	}
}

func (sess *Session) clientData(data []byte) {
	if sess.stalled {
		sess.buf = append(sess.buf, data...)
		return
	}
	if sess.handler != nil {
		sess.handler.OnClientData(sess, data)
	}
}

// WriteClient sends bytes to the flow initiator (impersonating the
// original destination; the gateway strips nothing after the shim).
func (sess *Session) WriteClient(b []byte) {
	if sess.udpReply != nil {
		sess.udpReply(b)
		return
	}
	if sess.client != nil {
		sess.client.Write(b)
	}
}

// CloseClient half-closes the initiator leg.
func (sess *Session) CloseClient() {
	if sess.client != nil {
		sess.client.Close()
	}
}

// AbortClient resets the initiator leg — content control can "terminate a
// flow when it would normally still continue".
func (sess *Session) AbortClient() {
	if sess.client != nil {
		sess.client.Abort()
	}
}

// DialServer opens the leg to the actual responder through the gateway's
// nonce port. Idempotent.
func (sess *Session) DialServer() {
	if sess.srv != nil || sess.udpReply != nil {
		return
	}
	c := sess.server.Host.Dial(sess.server.NonceIP, sess.req.NoncePort)
	sess.srv = c
	c.OnData = func(data []byte) {
		if sess.handler != nil {
			sess.handler.OnServerData(sess, data)
		}
	}
	c.OnPeerClose = func() {
		sess.serverClosed = true
		if sess.handler != nil {
			sess.handler.OnServerClose(sess)
		}
		c.Close()
	}
	c.OnClose = func(err error) {
		if !sess.serverClosed {
			sess.serverClosed = true
			if sess.handler != nil {
				sess.handler.OnServerClose(sess)
			}
		}
	}
}

// WriteServer sends bytes toward the actual responder, dialling the leg
// first if needed.
func (sess *Session) WriteServer(b []byte) {
	sess.DialServer()
	if sess.srv != nil {
		sess.srv.Write(b)
	}
}

// CloseServer half-closes the responder leg.
func (sess *Session) CloseServer() {
	if sess.srv != nil {
		sess.srv.Close()
	}
}
