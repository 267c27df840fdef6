package farm

import (
	"strings"
	"testing"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// Spec.Build rejects a farm that cannot be wired with a returned error
// naming the subfarm — never a panic from the primitives underneath — and
// surfaces what is merely odd as a warning on the built farm.
func TestSpecBuildRejects(t *testing.T) {
	sub := func(name string, lo, hi uint16, edit ...func(*SubfarmSpec)) SubfarmSpec {
		s := SubfarmSpec{SubfarmConfig: SubfarmConfig{
			Name: name, VLANLo: lo, VLANHi: hi,
			GlobalPool: netstack.MustParsePrefix("192.0.2.0/24"),
		}}
		for _, fn := range edit {
			fn(&s)
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		spec    Spec
		wantErr []string // substrings of the error; nil: Build succeeds
		warning string   // substring of a Farm.Warnings entry
	}{
		{
			name:    "overlapping subfarm VLAN ranges",
			spec:    Spec{Subfarms: []SubfarmSpec{sub("left", 16, 24), sub("right", 20, 30)}},
			wantErr: []string{"subfarm right", "overlaps subfarm left"},
		},
		{
			name: "raw-iron rotation with no free VLANs",
			spec: Spec{Subfarms: []SubfarmSpec{sub("full", 16, 17, func(s *SubfarmSpec) {
				s.Inmates, s.Iron = []string{"a", "b"}, 1
			})}},
			wantErr: []string{"subfarm full", "raw-iron rotation"},
		},
		{
			name:    "tree supervision with zero subfarms",
			spec:    Spec{Supervise: true},
			wantErr: []string{"supervision tree", "subfarm"},
		},
		{
			name: "Infection glob naming an unknown family",
			spec: Spec{Subfarms: []SubfarmSpec{{SubfarmConfig: SubfarmConfig{
				Name:         "odd",
				GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
				PolicyConfig: "[VLAN 30-31]\nDecider = Rustock\nInfection = zeus.1.*.exe\n\n[VLAN 32-33]\n" + GrumRule,
			}}}},
			warning: `no behavioural model for family "zeus"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.spec.Build()
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Build: %v, want a farm with a warning", err)
				}
				if len(f.Warnings) != 1 || !strings.Contains(f.Warnings[0], tc.warning) {
					t.Errorf("Warnings = %q, want one containing %q", f.Warnings, tc.warning)
				}
				// What the text does imply is derived all the same.
				sf := f.Subfarms[0]
				if cfg := sf.Config; cfg.VLANLo != 30 || cfg.VLANHi != 37 || len(cfg.SampleLibrary) != 1 ||
					cfg.SampleLibrary[0].Family != "grum" || cfg.CCHosts["Grum"].Addr != SteephostAddr {
					t.Errorf("derived VLANs %d-%d, library %v, C&C %v", cfg.VLANLo, cfg.VLANHi, cfg.SampleLibrary, cfg.CCHosts)
				}
				return
			}
			if err == nil {
				t.Fatal("Build succeeded")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// Where the external hosts run is a property of the layout, not of their
// addresses: on a sharded farm they share one simulator that is neither the
// root's nor any subfarm's; on the serial farm everything is on the root's.
func TestExternalHostPlacement(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout Layout
	}{
		{"serial", Layout{Seed: 3}},
		{"sharded", Layout{Seed: 3, Sharded: true, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sims []*sim.Simulator
			keep := func(_ *Farm, h *host.Host) error { sims = append(sims, h.Sim()); return nil }
			f, err := Spec{
				Layout: tc.layout,
				External: []ExternalHost{
					{Name: "a", Addr: netstack.MustParseAddr("50.8.207.91"), Serve: keep},
					{Name: "b", Addr: netstack.MustParseAddr("172.217.0.25"), Serve: keep},
					{Name: "c", Addr: netstack.MustParseAddr("203.0.113.5"), Serve: keep},
				},
				Subfarms: []SubfarmSpec{
					{SubfarmConfig: SubfarmConfig{Name: "left", VLANLo: 16, VLANHi: 20, ServiceVLAN: 11, GlobalPool: netstack.MustParsePrefix("192.0.2.0/24")}},
					{SubfarmConfig: SubfarmConfig{Name: "right", VLANLo: 30, VLANHi: 34, ServiceVLAN: 12, GlobalPool: netstack.MustParsePrefix("192.0.3.0/24")}},
				},
			}.Build()
			if err != nil {
				t.Fatal(err)
			}
			if len(sims) != 3 || sims[1] != sims[0] || sims[2] != sims[0] {
				t.Fatalf("external hosts do not share one simulator: %v", sims)
			}
			if !tc.layout.Sharded {
				if sims[0] != f.Sim {
					t.Fatal("serial layout: external hosts are not on the root simulator")
				}
				return
			}
			if sims[0] == f.Sim {
				t.Fatal("sharded layout: external hosts are on the root simulator")
			}
			for _, sf := range f.Subfarms {
				if sims[0] == sf.Sim {
					t.Fatalf("sharded layout: external hosts share subfarm %s's simulator", sf.Name)
				}
			}
		})
	}
}
