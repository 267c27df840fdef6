package farm

import (
	"strings"
	"testing"

	"gq/internal/netstack"
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
			name: "StdlibHTTPSink on a sharded layout",
			spec: Spec{
				Layout:   Layout{Sharded: true, Workers: 1},
				Subfarms: []SubfarmSpec{sub("stdlib", 16, 20, func(s *SubfarmSpec) { s.StdlibHTTPSink = true })},
			},
			wantErr: []string{"subfarm stdlib", "StdlibHTTPSink"},
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
			spec:    Spec{Supervise: SuperviseTree},
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
