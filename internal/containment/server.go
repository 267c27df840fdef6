// Package containment implements GQ's containment server (§5.4, §6.2): the
// explicit, scalable decision point that determines each flow's containment
// policy. The server is an ordinary application server on a farm host; the
// combination of the gateway's packet router and this server realises a
// transparent application-layer proxy for all traffic entering and leaving
// the inmate network.
//
// The server also controls the inmates' life-cycle: because it witnesses
// all network-level activity of an inmate, it reacts to the presence — and
// absence — of network events using activity triggers, issuing terminate/
// reboot/revert actions to the inmate controller over the management
// network.
package containment

import (
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
)

// Decision is a policy's verdict for one flow.
type Decision struct {
	Verdict shim.Verdict
	// RespIP/RespPort name the resulting responder endpoint (REDIRECT and
	// REFLECT targets). Zero means "the original destination".
	RespIP   netstack.Addr
	RespPort uint16
	// Annotation clarifies the context of the verdict for reports.
	Annotation string
	// Handler performs content control for REWRITE verdicts.
	Handler StreamHandler
}

// Decider is a containment policy: it issues endpoint-control verdicts from
// the flow four-tuple carried in the request shim. Content control is
// expressed through the Decision's Handler. Policies are codified as types
// and instantiated per VLAN range (§6.2 "policy structure").
type Decider interface {
	Name() string
	Decide(req *shim.Request) Decision
}

// StreamHandler performs content control on a REWRITE-contained flow. All
// methods run inside simulator events and must not block.
type StreamHandler interface {
	// OnClientData receives successive chunks of the initiator's stream.
	OnClientData(s *Session, data []byte)
	// OnServerData receives chunks from the actual responder once the
	// handler has opened the server leg with s.WriteServer/DialServer.
	OnServerData(s *Session, data []byte)
	// OnClientClose fires when the initiator half closes or resets.
	OnClientClose(s *Session)
	// OnServerClose fires when the responder half closes or resets.
	OnServerClose(s *Session)
}

// Server is the containment server application.
type Server struct {
	// Host is the server's inmate-network presence.
	Host *host.Host
	// NonceIP is the gateway address dialled for leg-2 connections.
	NonceIP netstack.Addr

	policies  []policyRange
	fallback  Decider
	triggers  *TriggerEngine
	lifecycle LifecycleSink
	udpSock   *host.UDPSock

	// FlowsSeen counts containment requests handled.
	FlowsSeen uint64

	// out is where the server encodes the shims it answers with; the
	// connection or socket it is written to copies it.
	out []byte

	// flowsSeen is the farm-wide cs.flows_seen counter (shared across
	// cluster members, since they serve one logical decision point).
	flowsSeen *obs.Counter

	// verdictStall delays the response shim after deciding, simulating an
	// overloaded or wedged decision point (fault injection). The decision
	// itself — policy evaluation and trigger observation — still happens
	// immediately; only the answer is late.
	verdictStall time.Duration
}

type policyRange struct {
	lo, hi uint16
	d      Decider
}

// LifecycleSink receives life-cycle actions destined for the inmate
// controller (e.g. "revert" for VLAN 16). The farm wires this to a
// management-network connection.
type LifecycleSink func(action string, vlan uint16)

// NewServer creates a containment server on h listening at port.
func NewServer(h *host.Host, port uint16, nonceIP netstack.Addr) (*Server, error) {
	s := &Server{Host: h, NonceIP: nonceIP}
	s.flowsSeen = h.Sim().Obs().Reg.Counter("cs.flows_seen")
	s.triggers = NewTriggerEngine(h.Sim(), s.EmitLifecycle)
	if err := h.Listen(port, s.acceptTCP); err != nil {
		return nil, err
	}
	sock, err := h.ListenUDP(port, s.handleUDP)
	if err != nil {
		return nil, err
	}
	s.udpSock = sock
	return s, nil
}

// SetVerdictStall makes the server sit on each verdict for d before
// answering (0 restores normal operation). Used by fault injection to
// exercise the gateway's await-verdict timeout path.
func (s *Server) SetVerdictStall(d time.Duration) { s.verdictStall = d }

// SetLifecycleSink wires life-cycle actions to the inmate controller.
func (s *Server) SetLifecycleSink(fn LifecycleSink) { s.lifecycle = fn }

// Triggers exposes the activity-trigger engine.
func (s *Server) Triggers() *TriggerEngine { return s.triggers }

// AddPolicy applies a decider to an inclusive VLAN ID range.
func (s *Server) AddPolicy(lo, hi uint16, d Decider) {
	s.policies = append(s.policies, policyRange{lo, hi, d})
}

// SwapPolicy replaces the decider for an existing [lo,hi] range in place,
// or — if no exact range match exists — prepends the new range so it wins
// over any overlapping earlier assignment (deciderFor returns the first
// match). Called mid-run by the ops plane; must run on the sim goroutine.
func (s *Server) SwapPolicy(lo, hi uint16, d Decider) {
	for i, pr := range s.policies {
		if pr.lo == lo && pr.hi == hi {
			s.policies[i].d = d
			return
		}
	}
	s.policies = append([]policyRange{{lo, hi, d}}, s.policies...)
}

// SetFallback sets the decider for VLANs with no explicit assignment
// (DefaultDeny in any sane configuration).
func (s *Server) SetFallback(d Decider) { s.fallback = d }

// deciderFor resolves the policy for a VLAN.
func (s *Server) deciderFor(vlan uint16) Decider {
	for _, pr := range s.policies {
		if vlan >= pr.lo && vlan <= pr.hi {
			return pr.d
		}
	}
	return s.fallback
}

// EmitLifecycle sends an action to the inmate controller.
func (s *Server) EmitLifecycle(action string, vlan uint16) {
	if s.lifecycle != nil {
		s.lifecycle(action, vlan)
	}
}

// decide runs policy for a request and counts it.
func (s *Server) decide(req *shim.Request, proto uint8) (Decision, string) {
	s.FlowsSeen++
	s.flowsSeen.Inc()
	d := s.deciderFor(req.VLAN)
	if d == nil {
		return Decision{Verdict: shim.Drop, Annotation: "no policy assigned"}, "Unassigned"
	}
	dec := d.Decide(req)
	if dec.Verdict == 0 {
		dec.Verdict = shim.Drop
	}
	s.triggers.Observe(req, proto)
	return dec, d.Name()
}

// acceptTCP handles a redirected flow: read the request shim, decide,
// answer with the response shim, then run content control if required. The
// connection's callbacks are the session's methods.
func (s *Server) acceptTCP(c *host.Conn) {
	sess := &Session{server: s, client: c}
	c.OnData = sess.onClientData
	c.OnPeerClose = sess.onClientPeerClose
	c.OnClose = sess.onClientClose
}

// handleUDP handles shim-padded datagrams.
func (s *Server) handleUDP(src netstack.Addr, srcPort uint16, data []byte) {
	// Supervisor heartbeats are echoed immediately, even under a verdict
	// stall: a stalled server is slow, not dead, and must not be marked
	// down. A crashed host never reaches this handler at all.
	if hb, err := shim.UnmarshalHeartbeat(data); err == nil {
		s.out = hb.AppendTo(s.out[:0])
		s.sendUDP(src, srcPort, s.out)
		return
	}
	req, err := shim.UnmarshalRequest(data[:min(len(data), shim.RequestLen)])
	if err != nil {
		return
	}
	payload := data[shim.RequestLen:]
	dec, policy := s.decide(req, netstack.ProtoUDP)
	answer := func() {
		resp := &shim.Response{
			OrigIP: req.OrigIP, RespIP: dec.RespIP, OrigPort: req.OrigPort, RespPort: dec.RespPort,
			Verdict: dec.Verdict, PolicyName: policy, Annotation: dec.Annotation,
		}
		s.out = resp.AppendTo(s.out[:0])
		if dec.Verdict.Has(shim.Rewrite) && dec.Handler != nil {
			// Impersonation for datagram protocols: the handler produces the
			// reply payload synchronously via a one-shot session.
			sess := &Session{server: s, udpReply: func(b []byte) {
				s.out = append(resp.AppendTo(s.out[:0]), b...)
				s.sendUDP(src, srcPort, s.out)
			}}
			sess.started = true
			sess.handler = dec.Handler
			s.sendUDP(src, srcPort, s.out)
			dec.Handler.OnClientData(sess, payload)
			return
		}
		s.sendUDP(src, srcPort, s.out)
	}
	if d := s.verdictStall; d > 0 {
		// data is the host's again once this returns (like a stalled session's buf).
		payload = append([]byte(nil), payload...)
		s.Host.Sim().Schedule(d, answer)
		return
	}
	answer()
}

func (s *Server) sendUDP(dst netstack.Addr, dstPort uint16, data []byte) {
	s.udpSock.SendTo(dst, dstPort, data)
}
