package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/shim"
	"gq/internal/trace"
)

// recordPcap runs a small Botfarm (one Rustock and one Grum inmate, steephost
// C&C, seed 1) for three virtual minutes and records its subfarm tap to a
// pcap file, as gqfarm -trace does.
func recordPcap(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.pcap")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	w := trace.NewWriter(fh)
	sub := farm.Botfarm()
	sub.PolicyConfig = farm.BotfarmPolicy(1, 1)
	sub.Inmates = []string{"inmate-0", "inmate-1"}
	sub.Trace = w
	f, err := farm.Spec{
		Layout:   farm.Layout{Seed: 1},
		External: []farm.ExternalHost{farm.Steephost("cc")},
		Subfarms: []farm.SubfarmSpec{sub},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	f.Run(3 * time.Minute)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSubcommandsMatchGolden: `dump` and `report` print what the separate
// gqtrace and gqreport tools printed for the same pcap. The report is kept
// as text in testdata/report.golden; the 1,072-line dump as the SHA-256 of
// its stdout in testdata/dump.sha256.
func TestSubcommandsMatchGolden(t *testing.T) {
	pcap := recordPcap(t)

	var out, errOut bytes.Buffer
	if code := run([]string{"dump", pcap}, &out, &errOut); code != 0 {
		t.Fatalf("dump: exit %d (stderr: %s)", code, errOut.String())
	}
	if got, want := errOut.String(), "gqtrace: 1072 packets\n"; got != want {
		t.Errorf("dump stderr = %q, want %q", got, want)
	}
	want, err := os.ReadFile("testdata/dump.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Errorf("dump stdout sha256 = %s, want %s; first lines:\n%.400s", got, want, out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"report", pcap}, &out, &errOut); code != 0 {
		t.Fatalf("report: exit %d (stderr: %s)", code, errOut.String())
	}
	golden, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("report output differs from testdata/report.golden:\n%s\nwant:\n%s", out.String(), golden)
	}
	if errOut.Len() != 0 {
		t.Errorf("report wrote to stderr: %q", errOut.String())
	}
}

// TestReportCountsUDPFlowOnce: a rewrite-proxied UDP flow re-wraps every
// datagram in the flow's request shim; `report` counts the flow once, not
// once per datagram.
func TestReportCountsUDPFlowOnce(t *testing.T) {
	inmate, cs := netstack.MustParseAddr("10.0.0.16"), netstack.MustParseAddr("10.3.0.1")
	req := shim.Request{OrigIP: inmate, OrigPort: 5353, RespIP: netstack.MustParseAddr("203.0.113.53"),
		RespPort: 53, VLAN: 16, NoncePort: 40001}
	path := filepath.Join(t.TempDir(), "udp.pcap")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	w := trace.NewWriter(fh)
	for i := 0; i < 3; i++ {
		p := &netstack.Packet{
			Eth:     netstack.Ethernet{VLAN: 11, EtherType: netstack.EtherTypeIPv4},
			IP:      &netstack.IPv4{Src: inmate, Dst: cs, TTL: 64, Protocol: netstack.ProtoUDP},
			UDP:     &netstack.UDP{SrcPort: 5353, DstPort: farm.ContainmentPort},
			Payload: append(req.Marshal(), "query"...),
		}
		if err := w.WritePacket(time.Unix(int64(i), 0), p.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"report", path}, &out, &errOut); code != 0 {
		t.Fatalf("report: exit %d (stderr: %s)", code, errOut.String())
	}
	if line := "  VLAN 16    1 flows\n"; !strings.Contains(out.String(), line) {
		t.Fatalf("report lacks %q:\n%s", line, out.String())
	}
}

// TestUsage: no subcommand, an unknown one, or a missing file argument is a
// usage error (exit 2); an unreadable pcap is exit 1.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"run.pcap"}, {"flow", "x.pcap"}, {"dump"}, {"report", "a", "b"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "usage:") {
			t.Errorf("run(%q) = %d, stderr %q; want 2 with usage", args, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"dump", filepath.Join(t.TempDir(), "missing.pcap")}, &out, &errOut); code != 1 {
		t.Errorf("missing pcap: exit %d, want 1", code)
	}
}
