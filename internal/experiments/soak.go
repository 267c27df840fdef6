package experiments

import (
	"bytes"
	"fmt"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/smtpx"
)

// Scaffolding the chaos, recycle and fleet soaks share.

// soakFarm is a farm whose whole run is captured as NDJSON.
type soakFarm struct {
	*farm.Farm
	journal bytes.Buffer
	sink    *obs.NDJSONSink
}

// newSoakFarm builds the farm — serial, sharded (workers goroutines, 0 =
// GOMAXPROCS), or sharded with extShards > 1 internet shards — and attaches
// the journal sink first, so the determinism comparison covers every event.
func newSoakFarm(seed int64, sharded bool, workers, extShards int) *soakFarm {
	sf := &soakFarm{}
	switch {
	case sharded && extShards > 1:
		sf.Farm = farm.NewShardedN(seed, workers, extShards)
	case sharded:
		sf.Farm = farm.NewSharded(seed, workers)
	default:
		sf.Farm = farm.New(seed)
	}
	sf.sink = sf.Sim.Obs().Journal.AttachNDJSON(&sf.journal)
	return sf
}

// steephostAddr is the C&C server every soak's specimens phone home to.
var steephostAddr = netstack.MustParseAddr("50.8.207.91")

// addSteephost places the C&C server on the farm's internet.
func addSteephost(f *farm.Farm) error {
	_, err := malware.NewCCServer(f.AddExternalHost("steephost", steephostAddr), malware.CCConfig{
		Template: "pharma special",
		Targets: []netstack.Addr{
			netstack.MustParseAddr("203.0.113.25"),
			netstack.MustParseAddr("203.0.113.26"),
		},
		Forbidden: []string{"DDOS 203.0.113.99"},
	})
	return err
}

// rustockSample is the one specimen the Rustock habitats auto-infect with.
func rustockSample() *policy.Sample {
	return policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-rustock-1"))
}

// rustockSubfarm is the i-th Rustock habitat of a multi-subfarm soak: its
// inmate VLANs start at 16+16i, with headroom for one probe inmate per phase.
func rustockSubfarm(name string, i, inmates int) farm.SubfarmConfig {
	lo := uint16(16 + 16*i)
	return farm.SubfarmConfig{
		Name:   name,
		VLANLo: lo, VLANHi: lo + uint16(inmates) + 3,
		ServiceVLAN: lo - 5,
		GlobalPool:  netstack.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", 2+i)),
		InfraPool:   netstack.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", 32+i)),
		PolicyConfig: fmt.Sprintf("[VLAN %d-%d]\n", lo, lo+uint16(inmates)-1) +
			"Decider = Rustock\nInfection = rustock.100921.*.exe\n",
		SampleLibrary:  []*policy.Sample{rustockSample()},
		RepeatBatches:  true,
		CCHosts:        map[string]policy.AddrPort{"Rustock": {Addr: steephostAddr, Port: 443}},
		SinkDropProb:   0.2,
		SinkStrictness: smtpx.Lenient,
	}
}

// windDown ends a soak: the specimens stop, injection ends, the farm drains
// past every sweep horizon, and the captured journal is returned.
func (sf *soakFarm) windDown(injectors []*chaos.Injector) ([]byte, error) {
	sf.RetireInmates()
	for _, inj := range injectors {
		inj.Stop()
	}
	sf.Run(12 * time.Minute)
	if err := sf.sink.Flush(); err != nil {
		return nil, err
	}
	return append([]byte(nil), sf.journal.Bytes()...), nil
}

// problems collects violated invariants.
type problems []string

func (p *problems) bad(format string, args ...any) {
	*p = append(*p, fmt.Sprintf(format, args...))
}

// commonInvariants checks what every soak demands of every subfarm after
// the drain: an empty flow table, and not one escaped containment probe.
func (p *problems) commonInvariants(s *farm.Subfarm, probes ...*farm.ProbeOutcome) {
	if n := s.Router.ActiveFlows(); n != 0 {
		p.bad("%s flow table leaked: %d entries after drain", s.Name, n)
	}
	for _, probe := range probes {
		if escaped := probe.Escaped(); len(escaped) > 0 {
			p.bad("%s containment probe escaped: %v", s.Name, escaped)
		}
	}
}
