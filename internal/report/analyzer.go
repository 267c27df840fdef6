// Package report implements GQ's reporting component (§6.5). The paper's
// deployment used Bro with a custom analyzer for the shimming protocol and
// Bro's SMTP analyzer; here the same roles are filled by tap-fed analyzers
// that reassemble activity from the subfarm's packet stream, a blacklist
// cross-check, and a generator producing activity reports in the Fig. 7
// format, with hourly/daily rotation.
package report

import (
	"bytes"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// SMTPStats aggregates one inmate's SMTP activity as seen on the wire.
type SMTPStats struct {
	Sessions      uint64 // greeted connections
	DataTransfers uint64 // completed DATA stages
}

// SMTPAnalyzer reconstructs SMTP session and DATA-transfer counts from the
// subfarm tap ("we leverage Bro's SMTP analyzer to track attempted and
// succeeding message delivery for our spambots"). It is deliberately
// independent of the sinks' own counters so reports verify enforcement
// rather than echo it.
type SMTPAnalyzer struct {
	// PerInmate keys stats by the inmate-side (internal) address.
	PerInmate map[netstack.Addr]*SMTPStats

	flows map[smtpKey]*smtpFlow
}

// smtpKey names one SMTP connection in the client's direction. Unlike
// netstack.FlowKey it is 16 bytes with no padding, so the flows map hashes
// it in one call (DESIGN.md §3b); every flow is TCP, so it carries no
// protocol.
type smtpKey struct {
	client, server         netstack.Addr
	clientPort, serverPort uint16
	vlan                   uint32
}

type smtpFlow struct {
	inmate      netstack.Addr
	greeted     bool
	dataPending bool
}

// NewSMTPAnalyzer creates an analyzer; attach Tap to a router tap.
func NewSMTPAnalyzer() *SMTPAnalyzer {
	return &SMTPAnalyzer{
		PerInmate: make(map[netstack.Addr]*SMTPStats),
		flows:     make(map[smtpKey]*smtpFlow),
	}
}

func (a *SMTPAnalyzer) stats(inmate netstack.Addr) *SMTPStats {
	st, ok := a.PerInmate[inmate]
	if !ok {
		st = &SMTPStats{}
		a.PerInmate[inmate] = st
	}
	return st
}

// Tap consumes one tapped packet (inmate-side addressing); anything but
// port-25 TCP is dismissed on its ports alone. A flow's state is created by
// the client's SYN or a server segment with payload and deleted by either
// side's FIN or RST: the bare ACKs that trail a close leave nothing behind.
func (a *SMTPAnalyzer) Tap(p *netstack.Packet) {
	if p.TCP == nil || p.IP == nil || (p.TCP.DstPort != 25 && p.TCP.SrcPort != 25) {
		return
	}
	// Keyed in the client's direction, whichever way p travels.
	key := smtpKey{client: p.IP.Src, server: p.IP.Dst,
		clientPort: p.TCP.SrcPort, serverPort: p.TCP.DstPort, vlan: uint32(p.Eth.VLAN)}
	fromServer := p.TCP.DstPort != 25
	if fromServer {
		key.client, key.server = key.server, key.client
		key.clientPort, key.serverPort = key.serverPort, key.clientPort
	}
	f := a.flows[key]
	switch {
	case f != nil:
	case fromServer && len(p.Payload) > 0, !fromServer && p.TCP.Flags&netstack.FlagSYN != 0:
		f = &smtpFlow{inmate: key.client}
		a.flows[key] = f
	default:
		return
	}
	if fromServer {
		a.serverLines(f, p.Payload)
	}
	if p.TCP.Flags&(netstack.FlagFIN|netstack.FlagRST) != 0 {
		delete(a.flows, key)
	}
}

func (a *SMTPAnalyzer) serverLines(f *smtpFlow, payload []byte) {
	for len(payload) > 0 {
		var line []byte
		line, payload, _ = bytes.Cut(payload, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) < 3 {
			continue
		}
		switch code := string(line[:3]); {
		case code == "220" && !f.greeted:
			f.greeted = true
			a.stats(f.inmate).Sessions++
		case code == "354":
			f.dataPending = true
		case code == "250" && f.dataPending:
			f.dataPending = false
			a.stats(f.inmate).DataTransfers++
		case code[0] == '4', code[0] == '5':
			f.dataPending = false
		}
	}
}

// CBL simulates the Composite Blocking List: third-party infrastructure
// (like the GMail MX's HELO fingerprinting) reports sender addresses, and
// the farm cross-checks its inmates' global addresses against the list —
// a listing being "a strong indication of a possible containment failure"
// (§7.1).
type CBL struct {
	sim    *sim.Simulator
	listed map[netstack.Addr]time.Duration
	// Reasons records why each address was listed.
	Reasons map[netstack.Addr]string
}

// NewCBL creates an empty blacklist.
func NewCBL(s *sim.Simulator) *CBL {
	return &CBL{
		sim:     s,
		listed:  make(map[netstack.Addr]time.Duration),
		Reasons: make(map[netstack.Addr]string),
	}
}

// List adds an address with a reason.
func (c *CBL) List(a netstack.Addr, reason string) {
	if _, dup := c.listed[a]; !dup {
		c.listed[a] = c.sim.Now()
		c.Reasons[a] = reason
	}
}

// Listed reports whether an address is on the blacklist.
func (c *CBL) Listed(a netstack.Addr) bool {
	_, ok := c.listed[a]
	return ok
}

// ListedCount returns the number of listed addresses.
func (c *CBL) ListedCount() int { return len(c.listed) }
