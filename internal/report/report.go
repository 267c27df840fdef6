package report

import (
	"fmt"
	"sort"
	"strings"

	"gq/internal/gateway"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
)

// SubfarmSource names one subfarm's data feeds.
type SubfarmSource struct {
	Name   string
	Router *gateway.Router
	SMTP   *SMTPAnalyzer // may be nil
}

// Reporter assembles Fig. 7-style activity reports. Reports break down
// activity by subfarm, inmate, and containment decision, "allowing us to
// verify that the gateway enforces these decisions as expected".
type Reporter struct {
	// Subfarms lists the active subfarms in display order.
	Subfarms []SubfarmSource
	// CBL, when set, is cross-checked against inmate global addresses.
	CBL *CBL
	// Anonymize masks the first two octets of global addresses (the paper
	// anonymises them as xxx.yyy in published reports).
	Anonymize bool
	// Obs, when set, appends a telemetry snapshot to each report and enables
	// CrossCheck against the registry counters.
	Obs *obs.Obs
}

// verdictOrder fixes section ordering in reports.
var verdictOrder = []shim.Verdict{shim.Forward, shim.Limit, shim.Drop, shim.Redirect, shim.Reflect, shim.Rewrite}

// aggRow is one "annotation -> target/port/#flows" line.
type aggRow struct {
	annotation string
	targets    map[netstack.Addr]bool
	port       uint16
	mixedPort  bool
	flows      int
}

// Generate renders the current activity report.
func (r *Reporter) Generate() string {
	var b strings.Builder
	b.WriteString("Inmate Activity\n===============\n\n")
	names := make([]string, len(r.Subfarms))
	for i, sf := range r.Subfarms {
		names[i] = sf.Name
	}
	fmt.Fprintf(&b, "Active subfarms: %s\n\n", strings.Join(names, ", "))

	for _, sf := range r.Subfarms {
		r.renderSubfarm(&b, sf)
	}
	if r.CBL != nil {
		r.renderBlacklist(&b)
	}
	if r.Obs != nil {
		b.WriteString("\n")
		r.Obs.Snapshot().WriteText(&b)
	}
	return b.String()
}

// CrossCheck verifies the registry counters against the reporter's
// independent per-flow records ("allowing us to verify that the gateway
// enforces these decisions as expected"). It returns one message per
// inconsistency; an empty result means the telemetry and the flow records
// agree exactly.
func (r *Reporter) CrossCheck() []string {
	if r.Obs == nil {
		return []string{"cross-check: no telemetry attached"}
	}
	snap := r.Obs.Snapshot()
	var problems []string
	for _, sf := range r.Subfarms {
		recs := sf.Router.Records()
		// A fail-closed record with a Policy went through a real verdict
		// before supervision killed it (counted by verdicts_applied AND
		// flows_failclosed); one without a Policy never got a verdict over
		// the wire — its Drop is synthetic, counted only by flows_failclosed.
		var adjudicated, preFC, postFC uint64
		for _, rec := range recs {
			switch {
			case rec.FailClosed && rec.Policy != "":
				postFC++
			case rec.FailClosed:
				preFC++
			case rec.Verdict != 0:
				adjudicated++
			}
		}
		pfx := "subfarm." + sf.Name + "."
		if got := snap.Counter(pfx + "flows_created"); got != uint64(len(recs)) {
			problems = append(problems, fmt.Sprintf(
				"%s: %sflows_created=%d but %d flow records", sf.Name, pfx, got, len(recs)))
		}
		if got := snap.Counter(pfx + "verdicts_applied"); got != adjudicated+postFC {
			problems = append(problems, fmt.Sprintf(
				"%s: %sverdicts_applied=%d but %d adjudicated flow records", sf.Name, pfx, got, adjudicated+postFC))
		}
		if got := snap.Counter(pfx + "flows_failclosed"); got != preFC+postFC {
			problems = append(problems, fmt.Sprintf(
				"%s: %sflows_failclosed=%d but %d fail-closed flow records", sf.Name, pfx, got, preFC+postFC))
		}
	}
	return problems
}

func (r *Reporter) renderSubfarm(b *strings.Builder, sf SubfarmSource) {
	cfg := sf.Router.Config()
	head := fmt.Sprintf("Subfarm '%s' [Containment server VLAN %d]", sf.Name, cfg.ContainmentCluster[0].VLAN)
	fmt.Fprintf(b, "%s\n%s\n\n", head, strings.Repeat("-", len(head)))

	// Group records per inmate VLAN.
	byVLAN := make(map[uint16][]*gateway.FlowRecord)
	for _, rec := range sf.Router.Records() {
		byVLAN[rec.VLAN] = append(byVLAN[rec.VLAN], rec)
	}
	vlans := make([]int, 0, len(byVLAN))
	for v := range byVLAN {
		vlans = append(vlans, int(v))
	}
	sort.Ints(vlans)

	for _, v := range vlans {
		vlan := uint16(v)
		recs := byVLAN[vlan]
		policy := dominantPolicy(recs)
		internal, _, _ := sf.Router.InmateByVLAN(vlan)
		global := netstack.Addr(0)
		if bnd := sf.Router.NAT().ByVLAN(vlan); bnd != nil {
			global = bnd.Global
		}
		head := fmt.Sprintf("%s [%s/%s, VLAN %d]", policy, r.globalString(global), internal, vlan)
		fmt.Fprintf(b, "%s\n%s\n", head, strings.Repeat("-", len(head)))

		rows := aggregate(recs)
		for _, verdict := range verdictOrder {
			vrows := rows[verdict]
			if len(vrows) == 0 {
				continue
			}
			fmt.Fprintf(b, "%s\n", verdict)
			keys := make([]string, 0, len(vrows))
			for k := range vrows {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				row := vrows[k]
				fmt.Fprintf(b, "- %-40s target          port    #flows\n", row.annotation)
				fmt.Fprintf(b, "  %-40s %-15s %-7s %d\n", "",
					r.targetString(row), portService(row), row.flows)
			}
		}
		if sf.SMTP != nil {
			if st, ok := sf.SMTP.PerInmate[internal]; ok {
				fmt.Fprintf(b, "\nSMTP sessions       %d\nSMTP DATA transfers %d\n", st.Sessions, st.DataTransfers)
			}
		}
		b.WriteString("\n")
	}
}

func (r *Reporter) renderBlacklist(b *strings.Builder) {
	var listed []string
	for _, sf := range r.Subfarms {
		for _, bnd := range sf.Router.NAT().Bindings() {
			if r.CBL.Listed(bnd.Global) {
				listed = append(listed, fmt.Sprintf("%s (VLAN %d): %s",
					r.globalString(bnd.Global), bnd.VLAN, r.CBL.Reasons[bnd.Global]))
			}
		}
	}
	if len(listed) == 0 {
		b.WriteString("Blacklist check: all inmate addresses clean\n")
		return
	}
	b.WriteString("WARNING: inmate addresses listed on CBL — possible containment failure:\n")
	for _, l := range listed {
		fmt.Fprintf(b, "  %s\n", l)
	}
}

// dominantPolicy picks the most frequent policy label among records.
func dominantPolicy(recs []*gateway.FlowRecord) string {
	counts := make(map[string]int)
	for _, rec := range recs {
		if rec.Policy != "" {
			counts[rec.Policy]++
		}
	}
	best, n := "(no policy)", 0
	for p, c := range counts {
		if c > n || (c == n && p < best) {
			best, n = p, c
		}
	}
	return best
}

// aggregate groups records into verdict -> annotation rows.
func aggregate(recs []*gateway.FlowRecord) map[shim.Verdict]map[string]*aggRow {
	out := make(map[shim.Verdict]map[string]*aggRow)
	for _, rec := range recs {
		if rec.Verdict == 0 {
			continue // never adjudicated (e.g. still in flight)
		}
		rows := out[rec.Verdict]
		if rows == nil {
			rows = make(map[string]*aggRow)
			out[rec.Verdict] = rows
		}
		ann := rec.Annotation
		if ann == "" {
			ann = "(unannotated)"
		}
		row := rows[ann]
		if row == nil {
			row = &aggRow{annotation: ann, targets: make(map[netstack.Addr]bool), port: rec.RespPort}
			rows[ann] = row
		}
		row.targets[rec.RespIP] = true
		if row.port != rec.RespPort {
			row.mixedPort = true
		}
		row.flows++
	}
	return out
}

func (r *Reporter) targetString(row *aggRow) string {
	if len(row.targets) != 1 {
		return "*.*.*.*"
	}
	for t := range row.targets {
		return r.globalString(t)
	}
	return "*.*.*.*"
}

// globalString renders an address, anonymising routable space when asked.
func (r *Reporter) globalString(a netstack.Addr) string {
	if a == 0 {
		return "?"
	}
	s := a.String()
	if r.Anonymize && !isRFC1918(a) {
		parts := strings.Split(s, ".")
		return "xxx.yyy." + parts[2] + "." + parts[3]
	}
	return s
}

func isRFC1918(a netstack.Addr) bool {
	return netstack.MustParsePrefix("10.0.0.0/8").Contains(a) ||
		netstack.MustParsePrefix("172.16.0.0/12").Contains(a) ||
		netstack.MustParsePrefix("192.168.0.0/16").Contains(a)
}

func portService(row *aggRow) string {
	if row.mixedPort {
		return "*"
	}
	switch row.port {
	case 25:
		return "smtp"
	case 80:
		return "http"
	case 443:
		return "https"
	case 21:
		return "ftp"
	case 53:
		return "domain"
	default:
		return fmt.Sprintf("%d", row.port)
	}
}
