package experiments

import (
	"time"

	"gq/internal/farm"
	"gq/internal/report"
	"gq/internal/shim"
)

// Figure7Config tunes the Botfarm reproduction.
type Figure7Config struct {
	Seed     int64
	Duration time.Duration
	// DropProb makes the SMTP sink drop connections probabilistically,
	// producing the Fig. 7 flows-vs-sessions gap.
	DropProb float64
	// RustockInmates / GrumInmates sizes the population.
	RustockInmates, GrumInmates int
}

// Figure7Outcome carries the regenerated report plus the numeric shape.
type Figure7Outcome struct {
	Report string

	ReflectedSMTPFlows int
	SMTPSessions       uint64
	SMTPDataTransfers  uint64
}

// Figure7Farm builds, without running it, the "Botfarm" from Fig. 6/Fig. 7:
// Rustock and Grum inmates under their per-family policies, auto-infection,
// SMTP sinks with probabilistic dropping.
func Figure7Farm(cfg Figure7Config) (*farm.Farm, error) {
	if cfg.RustockInmates == 0 {
		cfg.RustockInmates = 1
	}
	if cfg.GrumInmates == 0 {
		cfg.GrumInmates = 1
	}
	botfarm := farm.Botfarm()
	botfarm.PolicyConfig = farm.BotfarmPolicy(cfg.RustockInmates, cfg.GrumInmates)
	botfarm.VLANLo, botfarm.VLANHi = 16, uint16(15+cfg.RustockInmates+cfg.GrumInmates+2)
	botfarm.SampleLibrary = farm.BotfarmSamples()
	botfarm.SinkDropProb = cfg.DropProb
	for i := 0; i < cfg.RustockInmates+cfg.GrumInmates; i++ {
		botfarm.Inmates = append(botfarm.Inmates, "bot")
	}
	return farm.Spec{
		Layout:   farm.Layout{Seed: cfg.Seed},
		External: []farm.ExternalHost{farm.Steephost("steephost")},
		Subfarms: []farm.SubfarmSpec{botfarm},
	}.Build()
}

// RunFigure7 runs the Figure7Farm and renders its activity report.
func RunFigure7(cfg Figure7Config) (*Figure7Outcome, error) {
	if cfg.Duration == 0 {
		cfg.Duration = time.Hour
	}
	f, err := Figure7Farm(cfg)
	if err != nil {
		return nil, err
	}
	sf := f.Subfarms[0]
	f.Run(cfg.Duration)

	out := &Figure7Outcome{}
	out.Report = f.Reporter(true).Generate()
	out.ReflectedSMTPFlows = f.Fold.Flows(sf.Name, func(c report.FlowClass) bool {
		return c.Port == 25 && c.Verdict.Has(shim.Reflect)
	})
	for _, st := range sf.SMTPAnalyzer.PerInmate {
		out.SMTPSessions += st.Sessions
		out.SMTPDataTransfers += st.DataTransfers
	}
	return out, nil
}
