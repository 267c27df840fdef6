package report

import (
	"fmt"
	"slices"

	"gq/internal/netstack"
	"gq/internal/shim"
	"gq/internal/trace"
)

// TraceAudit summarises gateway datapath activity derived purely from
// on-the-wire evidence in a subfarm packet trace. It is the reporting-side
// counterpart of the gateway's own telemetry: because it reconstructs the
// same quantities from an independent observation point (the trace tap), it
// can cross-check the registry counters instead of echoing them.
type TraceAudit struct {
	// FlowsCreated is the number of distinct flows the gateway admitted:
	// each TCP flow manifests as a redirected SYN toward the containment
	// server, each UDP flow as a shim-wrapped datagram with a distinct
	// request tuple.
	FlowsCreated uint64
	// Verdicts is the number of distinct containment response shims
	// observed coming back from the containment server.
	Verdicts uint64
	// RequestShims counts request shims on the wire before deduplication
	// (rewrite-proxied UDP flows re-wrap every datagram).
	RequestShims uint64
	// FlowsByVLAN counts the flows each inmate VLAN asked the containment
	// server to decide: its distinct request shims.
	FlowsByVLAN map[uint16]uint64
}

// tcpSynKey identifies one TCP flow incarnation: reverted inmates reuse
// ephemeral ports, but a fresh incarnation carries a fresh ISN.
type tcpSynKey struct {
	src   netstack.Addr
	sport uint16
	seq   uint32
}

// verdictKey identifies one adjudicated flow on the response path.
type verdictKey struct {
	dst   netstack.Addr
	dport uint16
	seq   uint32 // TCP stream position; 0 for UDP (nonce port disambiguates)
	udp   bool
}

// AuditTrace derives flow-level counters from a subfarm trace (as written
// by a Router tap, e.g. gqfarm -trace). csIPs/csPort name the containment
// endpoint; for clustered subfarms pass each member's address in csIPs, and
// for a trace whose servers are not known none: then any address on csPort
// is one.
func AuditTrace(recs []trace.Record, csPort uint16, csIPs ...netstack.Addr) TraceAudit {
	isCS := func(a netstack.Addr) bool {
		return len(csIPs) == 0 || slices.Contains(csIPs, a)
	}

	a := TraceAudit{FlowsByVLAN: make(map[uint16]uint64)}
	tcpFlows := make(map[tcpSynKey]bool)
	tcpRequests := make(map[shim.Request]bool)
	udpFlows := make(map[shim.Request]bool)
	verdicts := make(map[verdictKey]bool)
	// request counts a request shim, and its flow under its VLAN the first
	// time seen holds it.
	request := func(req *shim.Request, seen map[shim.Request]bool) {
		a.RequestShims++
		if !seen[*req] {
			seen[*req] = true
			a.FlowsByVLAN[req.VLAN]++
		}
	}

	for _, rec := range recs {
		p, err := netstack.ParseFrame(rec.Frame)
		if err != nil || p.IP == nil {
			continue
		}
		switch {
		case p.TCP != nil && p.TCP.DstPort == csPort && isCS(p.IP.Dst):
			// Initiator -> CS. A pure SYN opens leg 1 of exactly one flow.
			if p.TCP.Flags&(netstack.FlagSYN|netstack.FlagACK) == netstack.FlagSYN {
				tcpFlows[tcpSynKey{p.IP.Src, p.TCP.SrcPort, p.TCP.Seq}] = true
			}
			if req := parseRequestShim(p.Payload); req != nil {
				request(req, tcpRequests)
			}

		case p.TCP != nil && p.TCP.SrcPort == csPort && isCS(p.IP.Src):
			// CS -> initiator. The verdict travels as a response shim at the
			// head of the stream; retransmissions repeat the sequence number.
			if resp := parseResponseShim(p.Payload); resp != nil {
				verdicts[verdictKey{p.IP.Dst, p.TCP.DstPort, p.TCP.Seq, false}] = true
			}

		case p.UDP != nil && p.UDP.DstPort == csPort && isCS(p.IP.Dst):
			// Shim-wrapped datagram toward the CS: the request tuple (which
			// includes the per-flow nonce port) identifies the flow even when
			// rewrite proxying re-wraps every datagram.
			if req := parseRequestShim(p.Payload); req != nil {
				request(req, udpFlows)
			}

		case p.UDP != nil && p.UDP.SrcPort == csPort && isCS(p.IP.Src):
			// CS reply: response shim addressed to the flow's nonce port.
			if resp := parseResponseShim(p.Payload); resp != nil {
				verdicts[verdictKey{p.IP.Dst, p.UDP.DstPort, 0, true}] = true
			}
		}
	}

	a.FlowsCreated = uint64(len(tcpFlows) + len(udpFlows))
	a.Verdicts = uint64(len(verdicts))
	return a
}

// parseRequestShim decodes a request shim at the head of payload, nil if
// the bytes are not a shim request.
func parseRequestShim(payload []byte) *shim.Request {
	if len(payload) < shim.RequestLen {
		return nil
	}
	req, err := shim.UnmarshalRequest(payload[:shim.RequestLen])
	if err != nil {
		return nil
	}
	return req
}

// parseResponseShim decodes a response shim at the head of payload, nil if
// the bytes are not a shim response.
func parseResponseShim(payload []byte) *shim.Response {
	if len(payload) < shim.ResponseMinLen {
		return nil
	}
	resp, _, err := shim.UnmarshalResponse(payload)
	if err != nil {
		return nil
	}
	return resp
}

// String renders the audit compactly.
func (a TraceAudit) String() string {
	return fmt.Sprintf("report.TraceAudit{%d flows, %d verdicts, %d request shims}",
		a.FlowsCreated, a.Verdicts, a.RequestShims)
}
