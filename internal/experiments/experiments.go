// Package experiments regenerates every table and figure from the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each Run*
// function builds the necessary farm(s), drives the workload, and returns
// both structured results and a textual rendering in the paper's format.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/farm"
	"gq/internal/malware"
	"gq/internal/report"
	"gq/internal/shim"
)

// Table1Row is one regenerated Table 1 entry: the paper's values alongside
// the measured ones.
type Table1Row struct {
	Spec             malware.WormSpec
	MeasuredEvents   int
	MeasuredIncub    time.Duration
	MeasuredConnsPer float64 // redirected flows per completed propagation
}

// RunTable1 reproduces Table 1 for the given specs (pass malware.Table1
// for the full table): each capture runs in a fresh worm honeyfarm; the
// measured incubation is the delay from the seeded infection to the next
// inmate's infection, and events are infections within the observation
// window.
func RunTable1(seed int64, specs []malware.WormSpec, window time.Duration) ([]Table1Row, string, error) {
	var rows []Table1Row
	for i, spec := range specs {
		e, err := farm.NewWormExperiment(seed+int64(i), spec, 4)
		if err != nil {
			return nil, "", err
		}
		e.Farm.Run(30 * time.Second) // boot + leases
		e.Seed()
		e.Farm.Run(window)
		res := e.Result()
		row := Table1Row{Spec: spec, MeasuredEvents: res.Events, MeasuredIncub: res.Incubation}
		// Connections per infection: redirected propagation flows divided
		// by completed propagations.
		redirected := e.Farm.Fold.Flows(e.Subfarm.Name, func(c report.FlowClass) bool {
			return !c.Inbound && c.Verdict.Has(shim.Redirect)
		})
		var props int
		for _, w := range e.Subfarm.Inmates {
			if worm, ok := w.Specimen.(*malware.Worm); ok && worm != nil {
				props += worm.Propagations
			}
		}
		if props > 0 {
			row.MeasuredConnsPer = float64(redirected) / float64(props)
		}
		rows = append(rows, row)
	}
	return rows, renderTable1(rows), nil
}

func renderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-22s %14s %14s %12s %12s\n",
		"EXECUTABLE", "WORM NAME", "EVENTS(paper)", "EVENTS(meas)", "INCUB(paper)", "INCUB(meas)")
	for _, r := range rows {
		conns := fmt.Sprintf("%d", r.Spec.Conns)
		if r.Spec.ConnsLabel != "" {
			conns = r.Spec.ConnsLabel
		}
		mark := ""
		if r.MeasuredIncub > malware.SlowIncubationThreshold {
			mark = " *" // the paper bolds >3 min
		}
		fmt.Fprintf(&b, "%-16s %-22s %9d / %-4s %9d / %-4.1f %11.1fs %10.1fs%s\n",
			r.Spec.Executable, r.Spec.Name,
			r.Spec.Events, conns,
			r.MeasuredEvents, r.MeasuredConnsPer,
			r.Spec.Incubation.Seconds(), r.MeasuredIncub.Seconds(), mark)
	}
	return b.String()
}
