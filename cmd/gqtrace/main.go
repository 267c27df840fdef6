// Command gqtrace is the offline tool for a pcap trace recorded by the farm
// (or any classic little-endian pcap of Ethernet frames).
//
//	gqtrace dump run.pcap     one tcpdump-like line per packet, with the
//	                          farm's shim protocol decoded where present
//	gqtrace report run.pcap   the Bro-style analyzers' per-inmate summary
//
// report is the offline half of the §6.5 reporting pipeline: the flows each
// inmate asked the containment servers to decide (report.AuditTrace, which
// counts distinct request shims to the farm's containment port) and SMTP
// sessions/DATA transfers (SMTP analyzer), extracted from network activity
// alone.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/report"
	"gq/internal/shim"
	"gq/internal/trace"
)

const usage = "usage: gqtrace dump <file.pcap> | gqtrace report <file.pcap>"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code made explicit, so tests drive the tool
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 || (args[0] != "dump" && args[0] != "report") {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fh, err := os.Open(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "gqtrace:", err)
		return 1
	}
	defer fh.Close()
	recs, err := trace.Read(fh)
	if err != nil {
		fmt.Fprintln(stderr, "gqtrace:", err)
		return 1
	}
	if args[0] == "dump" {
		dump(recs, stdout)
		fmt.Fprintf(stderr, "gqtrace: %d packets\n", len(recs))
	} else {
		summarize(recs, stdout)
	}
	return 0
}

func dump(recs []trace.Record, w io.Writer) {
	for _, rec := range recs {
		p, err := netstack.ParseFrame(rec.Frame)
		if err != nil {
			fmt.Fprintf(w, "%s  [unparseable frame, %d bytes]\n", rec.Time.Format("15:04:05.000000"), len(rec.Frame))
			continue
		}
		line := fmt.Sprintf("%s  %s", rec.Time.Format("15:04:05.000000"), p)
		if note := shimNote(p.Payload); note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, line)
	}
}

// shimNote annotates shim protocol messages riding in the payload.
func shimNote(payload []byte) string {
	if len(payload) < shim.PreambleLen {
		return ""
	}
	if req, err := shim.UnmarshalRequest(payload); err == nil {
		return fmt.Sprintf("{REQ SHIM vlan=%d orig=%s:%d resp=%s:%d nonce=%d}",
			req.VLAN, req.OrigIP, req.OrigPort, req.RespIP, req.RespPort, req.NoncePort)
	}
	if resp, _, err := shim.UnmarshalResponse(payload); err == nil {
		return fmt.Sprintf("{RSP SHIM %s policy=%q ann=%q}",
			resp.Verdict, resp.PolicyName, resp.Annotation)
	}
	return ""
}

// summarize prints the per-inmate activity summary.
func summarize(recs []trace.Record, w io.Writer) {
	smtp := report.NewSMTPAnalyzer()
	for _, rec := range recs {
		p, err := netstack.ParseFrame(rec.Frame)
		if err != nil {
			continue
		}
		smtp.Tap(p)
	}
	// The pcap does not say which addresses the containment servers had:
	// any on their port is one.
	flows := report.AuditTrace(recs, farm.ContainmentPort).FlowsByVLAN

	fmt.Fprintf(w, "Trace Activity Summary (%d packets)\n", len(recs))
	fmt.Fprintln(w, "===================================")
	fmt.Fprintln(w, "\nContainment requests by inmate VLAN:")
	vlans := make([]int, 0, len(flows))
	for v := range flows {
		vlans = append(vlans, int(v))
	}
	sort.Ints(vlans)
	for _, v := range vlans {
		fmt.Fprintf(w, "  VLAN %-5d %d flows\n", v, flows[uint16(v)])
	}

	fmt.Fprintln(w, "\nSMTP activity by inmate:")
	addrs := make([]netstack.Addr, 0, len(smtp.PerInmate))
	for a := range smtp.PerInmate {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		st := smtp.PerInmate[a]
		fmt.Fprintf(w, "  %-15s sessions=%d DATA=%d\n", a, st.Sessions, st.DataTransfers)
	}
}
