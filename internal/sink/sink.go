// Package sink implements GQ's sink servers (§6.3): the catch-all server
// that accepts arbitrary traffic without meaningfully responding to it, the
// fidelity-adjustable SMTP sink (static banner, banner grabbing from the
// actual target, probabilistic connection drop, strict or lenient protocol
// engine), and an HTTP sink for click traffic.
package sink

import (
	"fmt"
	"strings"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/obs"
)

// FlowLog records one contained connection's first bytes — enough to
// recognise, say, a Storm proxy's unexpected FTP iframe-injection jobs.
type FlowLog struct {
	Src   netstack.Addr
	Port  uint16 // destination port the flow believed it reached
	First string // first payload bytes (capped)
}

const firstBytesCap = 256

// maxFlowLogs bounds a catch-all sink's log, which inmates grow: past it
// the sink still accepts and counts, but counts each refused entry in
// sink.<host>.flow_log_full instead of logging it.
const maxFlowLogs = 16384

// CatchAll accepts arbitrary TCP and UDP traffic on every port. It is the
// simplest sink (the paper's needed "a mere 100 lines"): connections are
// accepted, payload is swallowed and logged, nothing meaningful comes back.
type CatchAll struct {
	h *host.Host

	// Flows logs each connection/datagram source with its first bytes, the
	// first maxFlowLogs of them.
	Flows []FlowLog
	// ByPort counts flows per destination port.
	ByPort map[uint16]int
	// TCPConns and UDPDatagrams count totals. They are mirrored into the
	// registry as sink.<host>.tcp_conns / sink.<host>.udp_datagrams so a
	// metrics snapshot sees sink activity without reaching into each sink.
	TCPConns, UDPDatagrams uint64

	tcpConns, udpDatagrams *obs.Counter
	flowLogFull            *obs.Counter // nil until the first refusal
}

// NewCatchAll installs the catch-all sink on h.
func NewCatchAll(h *host.Host) *CatchAll {
	s := &CatchAll{h: h, ByPort: make(map[uint16]int)}
	reg := h.Sim().Obs().Reg
	s.tcpConns = reg.Counter("sink." + h.Name + ".tcp_conns")
	s.udpDatagrams = reg.Counter("sink." + h.Name + ".udp_datagrams")
	h.ListenAny(func(c *host.Conn) {
		s.TCPConns++
		s.tcpConns.Inc()
		s.ByPort[c.LocalPort()]++
		c.OnPeerClose = func() { c.Close() }
		src, _ := c.RemoteAddr()
		if !s.roomInLog() {
			return
		}
		idx := len(s.Flows)
		s.Flows = append(s.Flows, FlowLog{Src: src, Port: c.LocalPort()})
		c.OnData = func(d []byte) {
			if room := firstBytesCap - len(s.Flows[idx].First); room > 0 {
				s.Flows[idx].First += string(d[:min(room, len(d))])
			}
		}
	})
	h.ListenUDPAny(func(dstPort uint16, src netstack.Addr, srcPort uint16, data []byte) {
		s.UDPDatagrams++
		s.udpDatagrams.Inc()
		s.ByPort[dstPort]++
		if s.roomInLog() {
			s.Flows = append(s.Flows, FlowLog{Src: src, Port: dstPort, First: string(data[:min(len(data), firstBytesCap)])})
		}
	})
	return s
}

// roomInLog reports whether Flows has room for one more entry, and counts
// a refusal when it has none.
func (s *CatchAll) roomInLog() bool {
	if len(s.Flows) < maxFlowLogs {
		return true
	}
	if s.flowLogFull == nil {
		s.flowLogFull = s.h.Sim().Obs().Reg.Counter("sink." + s.h.Name + ".flow_log_full")
	}
	s.flowLogFull.Inc()
	return false
}

// FlowsMatching returns logged flows whose first bytes contain substr.
func (s *CatchAll) FlowsMatching(substr string) []FlowLog {
	var out []FlowLog
	for _, f := range s.Flows {
		if strings.Contains(f.First, substr) {
			out = append(out, f)
		}
	}
	return out
}

// String summarises the sink.
func (s *CatchAll) String() string {
	return fmt.Sprintf("sink.CatchAll{%d tcp, %d udp, %d ports}",
		s.TCPConns, s.UDPDatagrams, len(s.ByPort))
}
