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

// SubfarmSource names one subfarm's data feeds. Its flows are the Fold's
// under Name, the scope its router journals in.
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
	// Fold holds every subfarm's flows, folded from the journal.
	Fold *Fold
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

// CrossCheck verifies the registry counters against the journal's flow
// events as the fold counted them ("allowing us to verify that the gateway
// enforces these decisions as expected"): flows created, verdicts applied
// (each from the wire, or a drop the gateway decided on a malformed shim)
// and flows failed closed. It returns one message per inconsistency; an
// empty result means the telemetry and the journal agree exactly.
func (r *Reporter) CrossCheck() []string {
	if r.Obs == nil {
		return []string{"cross-check: no telemetry attached"}
	}
	snap := r.Obs.Snapshot()
	var problems []string
	for _, sf := range r.Subfarms {
		s := r.Fold.scope(sf.Name)
		pfx := "subfarm." + sf.Name + "."
		for _, c := range []struct {
			series string
			events uint64
			typ    string
		}{
			{"flows_created", s.created, obs.EvFlowCreated},
			{"verdicts_applied", s.verdicts, obs.EvFlowVerdict},
			{"flows_failclosed", s.failClosed, obs.EvFlowFailClosed},
		} {
			if got := snap.Counter(pfx + c.series); got != c.events {
				problems = append(problems, fmt.Sprintf(
					"%s: %s%s=%d but %d %s events", sf.Name, pfx, c.series, got, c.events, c.typ))
			}
		}
	}
	return problems
}

func (r *Reporter) renderSubfarm(b *strings.Builder, sf SubfarmSource) {
	cfg := sf.Router.Config()
	head := fmt.Sprintf("Subfarm '%s' [Containment server VLAN %d]", sf.Name, cfg.ContainmentCluster[0].VLAN)
	fmt.Fprintf(b, "%s\n%s\n\n", head, strings.Repeat("-", len(head)))

	s := r.Fold.scope(sf.Name)
	rowsByVLAN := s.rows()
	vlans := make([]int, 0, len(s.vlans))
	for v := range s.vlans {
		vlans = append(vlans, int(v))
	}
	sort.Ints(vlans)

	for _, v := range vlans {
		vlan := uint16(v)
		policy := dominantPolicy(s.vlans[vlan].policies)
		internal, _, _ := sf.Router.InmateByVLAN(vlan)
		global := netstack.Addr(0)
		if bnd := sf.Router.NAT().ByVLAN(vlan); bnd != nil {
			global = bnd.Global
		}
		head := fmt.Sprintf("%s [%s/%s, VLAN %d]", policy, r.globalString(global), internal, vlan)
		fmt.Fprintf(b, "%s\n%s\n", head, strings.Repeat("-", len(head)))

		byVerdict := make(map[shim.Verdict][]rowKey)
		for k := range rowsByVLAN[vlan] {
			byVerdict[k.verdict] = append(byVerdict[k.verdict], k)
		}
		for _, verdict := range verdictOrder {
			keys := byVerdict[verdict]
			if len(keys) == 0 {
				continue
			}
			fmt.Fprintf(b, "%s\n", verdict)
			sort.Slice(keys, func(i, k int) bool { return keys[i].annotation < keys[k].annotation })
			for _, k := range keys {
				row := rowsByVLAN[vlan][k]
				fmt.Fprintf(b, "- %-40s target          port    #flows\n", k.annotation)
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

// dominantPolicy picks the policy that decided the most flows, the
// alphabetically first on a tie.
func dominantPolicy(counts map[string]int) string {
	best, n := "(no policy)", 0
	for p, c := range counts {
		if c > n || (c == n && p < best) {
			best, n = p, c
		}
	}
	return best
}

func (r *Reporter) targetString(row aggRow) string {
	if row.mixedTarget {
		return "*.*.*.*"
	}
	return r.globalString(row.target)
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

func portService(row aggRow) string {
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
