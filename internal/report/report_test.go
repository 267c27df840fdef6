package report

import (
	"maps"
	"strings"
	"testing"

	"gq/internal/netstack"
	"gq/internal/shim"
	"gq/internal/sim"
	"gq/internal/trace"
)

func tcpPacket(vlan uint16, src netstack.Addr, sport uint16, dst netstack.Addr, dport uint16, flags uint8, payload string) *netstack.Packet {
	return &netstack.Packet{
		Eth:     netstack.Ethernet{VLAN: vlan, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{Src: src, Dst: dst, TTL: 64, Protocol: netstack.ProtoTCP},
		TCP:     &netstack.TCP{SrcPort: sport, DstPort: dport, Flags: flags},
		Payload: []byte(payload),
	}
}

func TestSMTPAnalyzerCountsSessions(t *testing.T) {
	a := NewSMTPAnalyzer()
	inmate := netstack.MustParseAddr("10.0.0.23")
	mx := netstack.MustParseAddr("203.0.113.25")

	// Client SYN, server banner, DATA go-ahead, acceptance.
	a.Tap(tcpPacket(16, inmate, 1234, mx, 25, netstack.FlagSYN, ""))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "220 mx ESMTP\r\n"))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "250 Hello\r\n"))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "354 End data\r\n"))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "250 OK queued\r\n"))
	// Second DATA in the same session.
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "354 End data\r\n250 OK\r\n"))

	st := a.PerInmate[inmate]
	if st == nil || st.Sessions != 1 || st.DataTransfers != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSMTPAnalyzerRejectedDataNotCounted(t *testing.T) {
	a := NewSMTPAnalyzer()
	inmate := netstack.MustParseAddr("10.0.0.23")
	mx := netstack.MustParseAddr("203.0.113.25")
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "220 mx\r\n"))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "354 go\r\n"))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "554 rejected\r\n"))
	st := a.PerInmate[inmate]
	if st.DataTransfers != 0 {
		t.Fatalf("rejected DATA counted: %+v", st)
	}
}

func TestSMTPAnalyzerFlowCleanup(t *testing.T) {
	a := NewSMTPAnalyzer()
	inmate := netstack.MustParseAddr("10.0.0.23")
	mx := netstack.MustParseAddr("203.0.113.25")
	a.Tap(tcpPacket(16, inmate, 1234, mx, 25, netstack.FlagSYN, ""))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "220 mx\r\n"))
	a.Tap(tcpPacket(16, inmate, 1234, mx, 25, netstack.FlagFIN|netstack.FlagACK, ""))
	if len(a.flows) != 0 {
		t.Fatalf("flow state leaked: %d entries", len(a.flows))
	}
	// A fresh connection on the same tuple is a new session.
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "220 mx\r\n"))
	if a.PerInmate[inmate].Sessions != 2 {
		t.Fatalf("sessions %d", a.PerInmate[inmate].Sessions)
	}
}

// TestSMTPAnalyzerSessionLeavesNoState replays one REFLECTed session as
// the subfarm tap sees it — the inmate's packets in their own addressing
// (VLAN 16, to the MX they believe in) and again as forwarded to the sink
// (service VLAN, sink address; the gateway's own handshake ACK carries no
// IP protocol in its parsed header), the sink's replies rewritten back —
// through handshake, dialog, four-way close and the ACKs that trail it.
// Every packet after a side's FIN used to re-create the flow entry its FIN
// had just deleted: three entries per finished session, for good.
func TestSMTPAnalyzerSessionLeavesNoState(t *testing.T) {
	a := NewSMTPAnalyzer()
	inmate := netstack.MustParseAddr("10.0.0.16")
	mx := netstack.MustParseAddr("203.0.113.26")
	sink := netstack.MustParseAddr("10.3.0.3")
	const syn, ack, psh, fin = netstack.FlagSYN, netstack.FlagACK, netstack.FlagPSH | netstack.FlagACK, netstack.FlagFIN | netstack.FlagACK
	// client sends a packet in both tap addressings; server answers.
	client := func(flags uint8, payload string) {
		a.Tap(tcpPacket(16, inmate, 32771, mx, 25, flags, payload))
		a.Tap(tcpPacket(11, inmate, 32771, sink, 25, flags, payload))
	}
	server := func(flags uint8, payload string) { a.Tap(tcpPacket(16, mx, 25, inmate, 32771, flags, payload)) }

	a.Tap(tcpPacket(16, inmate, 32771, mx, 25, syn, ""))
	server(syn|ack, "")
	a.Tap(tcpPacket(16, inmate, 32771, mx, 25, ack, ""))
	a.Tap(tcpPacket(11, inmate, 32771, sink, 25, syn, ""))
	gwAck := tcpPacket(11, inmate, 32771, sink, 25, ack, "")
	gwAck.IP.Protocol = 0
	a.Tap(gwAck)
	server(psh, "220 mail.example.com ESMTP Postfix\r\n")
	for _, step := range [][2]string{
		{"HELO localhost\r\n", "250 Hello localhost\r\n"},
		{"MAIL FROM:<rustock1@freemail.example>\r\n", "250 sender OK\r\n"},
		{"RCPT TO:<victim1@inbox.example>\r\n", "250 recipient OK\r\n"},
		{"DATA\r\n", "354 End data with <CR><LF>.<CR><LF>\r\n"},
		{"Subject: cheap meds\r\n", ""}, {"\r\n", ""}, {"cheap meds #1\r\n", ""},
		{".\r\n", "250 OK queued\r\n"},
		{"QUIT\r\n", "221 Bye\r\n"},
	} {
		client(psh, step[0])
		server(ack, "")
		if step[1] != "" {
			server(psh, step[1])
			client(ack, "")
		}
	}
	if len(a.flows) != 2 {
		t.Errorf("mid-session: %d flow entries, want one per client addressing", len(a.flows))
	}
	server(fin, "")
	server(ack, "")
	client(fin, "")
	client(ack, "") // of the server's data
	client(ack, "") // of the server's FIN
	server(ack, "") // of the client's FIN
	if len(a.flows) != 0 {
		t.Errorf("a finished session left %d flow entries behind", len(a.flows))
	}
	if st := a.PerInmate[inmate]; st == nil || st.Sessions != 1 || st.DataTransfers != 1 || len(a.PerInmate) != 1 {
		t.Fatalf("stats %+v over %d inmates, want 1 session with 1 DATA transfer for one", st, len(a.PerInmate))
	}
}

// TestSMTPAnalyzerTapAllocFree pins the tap's cost on the two packets it
// sees most: anything that is not SMTP (dismissed on its ports, before a
// flow key is built) and a server reply of a session it is following.
func TestSMTPAnalyzerTapAllocFree(t *testing.T) {
	a := NewSMTPAnalyzer()
	inmate := netstack.MustParseAddr("10.0.0.23")
	mx := netstack.MustParseAddr("203.0.113.25")
	a.Tap(tcpPacket(16, inmate, 1234, mx, 25, netstack.FlagSYN, ""))
	a.Tap(tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "220 mx ESMTP\r\n"))
	web := tcpPacket(16, inmate, 1234, mx, 80, netstack.FlagACK, strings.Repeat("bulk payload ", 100))
	goAhead := tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "354 End data with <CR><LF>.<CR><LF>\r\n")
	queued := tcpPacket(16, mx, 25, inmate, 1234, netstack.FlagACK, "250 OK queued\r\n")
	if n := testing.AllocsPerRun(100, func() { a.Tap(web); a.Tap(goAhead); a.Tap(queued) }); n != 0 {
		t.Fatalf("Tap on a non-SMTP packet and two server replies: %v allocs, want 0", n)
	}
	if st := a.PerInmate[inmate]; st.Sessions != 1 || st.DataTransfers != 101 || len(a.flows) != 1 {
		t.Fatalf("stats %+v, %d flows", st, len(a.flows))
	}
}

// TestAuditTraceCountsFlowsPerVLAN: a rewrite-proxied UDP flow wraps every
// datagram in the same request shim, and a retransmitted TCP segment repeats
// its shim, yet each is one flow of its VLAN; a payload that is no shim, or
// a shim not bound for the containment server, is none.
func TestAuditTraceCountsFlowsPerVLAN(t *testing.T) {
	inmate := netstack.MustParseAddr("10.0.0.23")
	cs := netstack.MustParseAddr("10.3.0.1")
	udpReq := shim.Request{OrigIP: inmate, OrigPort: 5353, RespIP: netstack.MustParseAddr("203.0.113.53"),
		RespPort: 53, VLAN: 16, NoncePort: 40001}
	tcpReq := shim.Request{OrigIP: inmate, OrigPort: 1234, RespIP: netstack.MustParseAddr("203.0.113.5"),
		RespPort: 80, VLAN: 17, NoncePort: 40002}
	var recs []trace.Record
	record := func(p *netstack.Packet) { recs = append(recs, trace.Record{Frame: p.Marshal()}) }
	for i := 0; i < 3; i++ {
		record(&netstack.Packet{
			Eth:     netstack.Ethernet{VLAN: 11, EtherType: netstack.EtherTypeIPv4},
			IP:      &netstack.IPv4{Src: inmate, Dst: cs, TTL: 64, Protocol: netstack.ProtoUDP},
			UDP:     &netstack.UDP{SrcPort: 5353, DstPort: 6666},
			Payload: append(udpReq.Marshal(), "query"...),
		})
	}
	for i := 0; i < 2; i++ {
		p := tcpPacket(11, inmate, 1234, cs, 6666, netstack.FlagACK, "")
		p.Payload = tcpReq.Marshal()
		record(p)
	}
	record(tcpPacket(11, inmate, 1234, cs, 6666, netstack.FlagACK, "GET / HTTP/1.1\r\n\r\npadpadpadpad"))
	stray := tcpPacket(11, inmate, 1234, netstack.MustParseAddr("10.3.0.2"), 6666, netstack.FlagACK, "")
	stray.Payload = tcpReq.Marshal()
	record(stray)

	a := AuditTrace(recs, 6666, cs)
	if want := map[uint16]uint64{16: 1, 17: 1}; !maps.Equal(a.FlowsByVLAN, want) {
		t.Fatalf("flows by VLAN %v, want %v", a.FlowsByVLAN, want)
	}
	if a.RequestShims != 5 {
		t.Fatalf("%d request shims, want 5", a.RequestShims)
	}
	// Without the servers' addresses, any address on the port is one.
	if got := AuditTrace(recs, 6666).FlowsByVLAN[17]; got != 1 {
		t.Fatalf("VLAN 17 reads %d flows over any server address, want 1", got)
	}
}

func TestCBL(t *testing.T) {
	s := sim.New(1)
	c := NewCBL(s)
	addr := netstack.MustParseAddr("192.0.2.16")
	if c.Listed(addr) {
		t.Fatal("empty list matched")
	}
	c.List(addr, "wergvan HELO")
	c.List(addr, "duplicate reason ignored")
	if !c.Listed(addr) || c.ListedCount() != 1 {
		t.Fatal("listing broken")
	}
	if c.Reasons[addr] != "wergvan HELO" {
		t.Fatalf("reason %q", c.Reasons[addr])
	}
}

func TestAnonymization(t *testing.T) {
	r := &Reporter{Anonymize: true}
	if got := r.globalString(netstack.MustParseAddr("192.0.2.170")); got != "xxx.yyy.2.170" {
		t.Fatalf("global %q", got)
	}
	// RFC 1918 addresses stay readable (the paper publishes them as-is).
	if got := r.globalString(netstack.MustParseAddr("10.3.9.241")); got != "10.3.9.241" {
		t.Fatalf("internal %q", got)
	}
	r.Anonymize = false
	if got := r.globalString(netstack.MustParseAddr("192.0.2.170")); got != "192.0.2.170" {
		t.Fatalf("unmasked %q", got)
	}
	if got := r.globalString(0); got != "?" {
		t.Fatalf("zero %q", got)
	}
}

func TestPortService(t *testing.T) {
	cases := map[uint16]string{25: "smtp", 80: "http", 443: "https", 21: "ftp", 53: "domain", 6543: "6543"}
	for port, want := range cases {
		row := aggRow{port: port}
		if got := portService(row); got != want {
			t.Errorf("port %d -> %q, want %q", port, got, want)
		}
	}
	if portService(aggRow{port: 25, mixedPort: true}) != "*" {
		t.Error("mixed ports should render *")
	}
}
