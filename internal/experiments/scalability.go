package experiments

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/inmate"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/smtpx"
)

// ScalabilityPoint is one row of the §7.2 gateway-scaling sweep.
type ScalabilityPoint struct {
	Subfarms, InmatesPerSubfarm int
	FlowsAdjudicated            uint64
	SpamSessions                uint64
	WallTime                    time.Duration
}

// RunScalabilityGateway reproduces the §7.2 observation that one gateway
// serves several parallel subfarms (the paper ran 5–6 with a handful to a
// dozen inmates each): for each (subfarms, inmates) point it builds the
// farm, runs the workload, and records flow and wall-clock cost.
func RunScalabilityGateway(seed int64, points [][2]int, duration time.Duration) ([]ScalabilityPoint, string, error) {
	var out []ScalabilityPoint
	for _, pt := range points {
		nSub, nInm := pt[0], pt[1]
		start := time.Now()
		spec := scalabilitySpec(seed)
		for i := 0; i < nSub; i++ {
			sf := scalabilitySubfarm(fmt.Sprintf("sub%d", i), uint16(100+i*40), nInm)
			sf.ServiceVLAN = uint16(10 + i)
			sf.GlobalPool = netstack.Prefix{Base: netstack.AddrFrom4(192, 0, byte(2+i), 0), Bits: 24}
			// Paper-shaped spam density: Table 1 engines deliver many
			// messages per SMTP session, so each session is a long-lived
			// dialog rather than a one-shot — that is what keeps several
			// subfarm domains busy in the same synchronization rounds.
			sf.SpamBatch = 100
			// A real access path is not an ideal wire: with per-link
			// latency each SMTP transaction occupies virtual time, so
			// concurrently-infected subfarms overlap instead of
			// collapsing into disjoint instantaneous bursts.
			sf.AccessLatency = time.Millisecond
			for j := 0; j < nInm; j++ {
				sf.Inmates = append(sf.Inmates, fmt.Sprintf("bot%d-%d", i, j))
			}
			spec.Subfarms = append(spec.Subfarms, sf)
		}
		f, err := spec.Build()
		if err != nil {
			return nil, "", err
		}
		f.Run(duration)
		var flows, sessions uint64
		for _, sf := range f.Subfarms {
			flows += sf.Router.VerdictsApplied.Value()
			sessions += sf.SMTPSink.Sessions + sf.BannerSink.Sessions
		}
		out = append(out, ScalabilityPoint{
			Subfarms: nSub, InmatesPerSubfarm: nInm,
			FlowsAdjudicated: flows, SpamSessions: sessions,
			WallTime: time.Since(start),
		})
	}
	var b strings.Builder
	b.WriteString("S1: gateway scaling (one gateway, parallel subfarms)\n")
	fmt.Fprintf(&b, "%9s %9s %14s %14s %12s\n", "subfarms", "inmates", "verdicts", "spamSessions", "wall")
	for _, p := range out {
		fmt.Fprintf(&b, "%9d %9d %14d %14d %12v\n",
			p.Subfarms, p.InmatesPerSubfarm, p.FlowsAdjudicated, p.SpamSessions,
			p.WallTime.Round(time.Millisecond))
	}
	return out, b.String(), nil
}

// scalabilitySpec is the farm both sweeps grow subfarms on: one C&C host
// with a one-target template.
func scalabilitySpec(seed int64) farm.Spec {
	return farm.Spec{
		Layout: farm.Layout{Seed: seed},
		External: []farm.ExternalHost{{Name: "cc", Addr: farm.SteephostAddr, Serve: func(_ *farm.Farm, h *host.Host) error {
			_, err := malware.NewCCServer(h, malware.CCConfig{
				Template: "x", Targets: []netstack.Addr{netstack.MustParseAddr("203.0.113.25")},
			})
			return err
		}}},
	}
}

// scalabilitySubfarm is a habitat of Rustock bots on VLANs lo up, every one
// infected with the same sample.
func scalabilitySubfarm(name string, lo uint16, inmates int) farm.SubfarmSpec {
	hi := lo + uint16(inmates) + 2
	return farm.SubfarmSpec{SubfarmConfig: farm.SubfarmConfig{
		Name:   name,
		VLANLo: lo, VLANHi: hi,
		PolicyConfig:   fmt.Sprintf("[VLAN %d-%d]\nDecider = Rustock\nInfection = *.exe\n", lo, hi),
		SampleLibrary:  []*policy.Sample{policy.NewSample("bot.exe", "rustock", []byte("MZ"))},
		RepeatBatches:  true,
		SinkStrictness: smtpx.Lenient,
	}}
}

// ClusterPoint is one row of the containment-server cluster comparison.
type ClusterPoint struct {
	Servers          int
	FlowsAdjudicated uint64
	PerServerMax     uint64
	WallTime         time.Duration
}

// RunScalabilityCluster reproduces the §7.2 bottleneck discussion: the
// same inmate population adjudicated by one containment server versus a
// cluster with sticky per-inmate selection. The interesting output is the
// per-server load split.
func RunScalabilityCluster(seed int64, serverCounts []int, inmates int, duration time.Duration) ([]ClusterPoint, string, error) {
	var out []ClusterPoint
	for _, n := range serverCounts {
		start := time.Now()
		sfSpec := scalabilitySubfarm("cluster", 100, inmates)
		sfSpec.ServiceVLAN = 11
		sfSpec.GlobalPool = netstack.MustParsePrefix("192.0.2.0/24")
		sfSpec.ContainmentServers = n
		for j := 0; j < inmates; j++ {
			sfSpec.Inmates = append(sfSpec.Inmates, fmt.Sprintf("bot%d", j))
		}
		spec := scalabilitySpec(seed)
		spec.Subfarms = []farm.SubfarmSpec{sfSpec}
		f, err := spec.Build()
		if err != nil {
			return nil, "", err
		}
		sf := f.Subfarms[0]
		f.Run(duration)
		var total, max uint64
		for _, srv := range sf.CSCluster {
			total += srv.FlowsSeen
			if srv.FlowsSeen > max {
				max = srv.FlowsSeen
			}
		}
		out = append(out, ClusterPoint{
			Servers: n, FlowsAdjudicated: total, PerServerMax: max,
			WallTime: time.Since(start),
		})
	}
	var b strings.Builder
	b.WriteString("S2: containment server cluster (sticky per-inmate selection)\n")
	fmt.Fprintf(&b, "%9s %14s %14s %12s\n", "servers", "totalFlows", "maxPerServer", "wall")
	for _, p := range out {
		fmt.Fprintf(&b, "%9d %14d %14d %12v\n",
			p.Servers, p.FlowsAdjudicated, p.PerServerMax, p.WallTime.Round(time.Millisecond))
	}
	return out, b.String(), nil
}

// RunScalabilityVLANPool reproduces the §7.2 VLAN-ID limit: the IEEE
// 802.1Q twelve-bit ID caps one inmate network at 4,094 usable IDs.
func RunScalabilityVLANPool() (int, string) {
	pool := inmate.NewVLANPool(1, netstack.MaxVLAN)
	n := 0
	for {
		if _, err := pool.Allocate(); err != nil {
			break
		}
		n++
	}
	text := fmt.Sprintf("S3: VLAN ID pool exhausted after %d allocations (802.1Q 12-bit limit; "+
		"the paper's workaround prepends a gateway-internal network identifier)\n", n)
	return n, text
}
