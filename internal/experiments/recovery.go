package experiments

import (
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
)

// maxRecovery bounds each crash's down→healthy interval as measured by the
// supervisor (detection + backed-off restart + health confirmation): one
// virtual minute — the killstorm's own CSDownFor, i.e. the supervisor must
// beat what an unsupervised restore would have done.
const maxRecovery = time.Minute

// RecoveryOutcome is the chaos outcome plus the recovery measurements.
type RecoveryOutcome struct {
	*ChaosOutcome

	// Recoveries are the per-crash down→healthy intervals, in detection
	// order; MaxObserved is their maximum.
	Recoveries  []time.Duration
	MaxObserved time.Duration
}

// RunRecoverySoak runs the recovery soak: the chaos soak's Botfarm demo
// with a 3-member containment cluster, the "killstorm" fault profile (a
// sustained round-robin kill schedule), and the supervisor attached. Where
// the plain chaos soak proves graceful degradation, the recovery soak
// proves self-healing: every kill must be detected, failed over, and
// repaired within maxRecovery — with containment never opening up. The
// recovery invariants layer on top of the chaos ones (which already demand
// zero probe escapes, an empty flow table after drain, exact telemetry,
// and every crashed server healthy again).
func RunRecoverySoak(layout farm.Layout) (*RecoveryOutcome, error) {
	profile, err := chaos.Parse("killstorm")
	if err != nil {
		return nil, err
	}
	chaosOut, err := RunChaosSoak(ChaosConfig{
		Layout:             layout,
		Profile:            profile,
		ContainmentServers: 3,
		Supervise:          true,
	})
	if err != nil {
		return nil, err
	}
	out := &RecoveryOutcome{ChaosOutcome: chaosOut}
	out.Recoveries = append(out.Recoveries, chaosOut.Subfarms[0].Supervisor.Recoveries...)
	for _, d := range out.Recoveries {
		if d > out.MaxObserved {
			out.MaxObserved = d
		}
		if d > maxRecovery {
			out.Problems = append(out.Problems,
				"recovery took "+d.String()+", bound is "+maxRecovery.String())
		}
	}
	return out, nil
}
