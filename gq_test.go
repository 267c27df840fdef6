package gq_test

// Tests of the public API surface: a downstream user's view of the
// library, exercised without touching internal packages beyond what the
// examples themselves use.

import (
	"strings"
	"testing"
	"time"

	"gq"
	"gq/internal/shim"
)

func TestPublicQuickstart(t *testing.T) {
	f, err := gq.Spec{
		Layout:   gq.Layout{Seed: 1},
		External: []gq.ExternalHost{{Name: "cc", Addr: gq.MustParseAddr("203.0.113.5")}},
		Subfarms: []gq.SubfarmSpec{{
			SubfarmConfig: gq.SubfarmConfig{
				Name:   "api",
				VLANLo: 16, VLANHi: 20,
				GlobalPool: gq.MustParsePrefix("192.0.2.0/24"),
			},
			Inmates: []string{"i0"},
			OnBoot: func(fi *gq.FarmInmate) {
				c := fi.Host.Dial(gq.MustParseAddr("203.0.113.5"), 80)
				c.OnConnect = func() { c.Write([]byte("hello")) }
			},
		}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	sf := f.Subfarms[0]
	f.Run(time.Minute)
	recs := sf.Router.Records()
	var contained bool
	for _, r := range recs {
		if r.Verdict == gq.Reflect && r.Policy == "DefaultDeny" {
			contained = true
		}
	}
	if !contained {
		t.Fatalf("default-deny did not contain: %+v", recs)
	}
	if !strings.Contains(f.Reporter(true).Generate(), "Inmate Activity") {
		t.Fatal("reporter broken")
	}
}

func TestPublicPolicyRegistry(t *testing.T) {
	names := gq.PolicyNames()
	for _, want := range []string{"DefaultDeny", "Rustock", "Grum", "Waledac", "Storm", "WormCapture"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("policy %q missing from registry", want)
		}
	}
	env := &gq.PolicyEnv{InternalPrefix: gq.MustParsePrefix("10.0.0.0/16")}
	d, err := gq.NewPolicy("HardDeny", env)
	if err != nil {
		t.Fatal(err)
	}
	dec := d.Decide(&shim.Request{VLAN: 16, RespPort: 80})
	if dec.Verdict != gq.Drop {
		t.Fatalf("verdict %v", dec.Verdict)
	}
}

func TestPublicCustomPolicy(t *testing.T) {
	gq.RegisterPolicy("TestOnlyHTTPS", func(env *gq.PolicyEnv) gq.Decider {
		return httpsOnly{}
	})
	d, err := gq.NewPolicy("TestOnlyHTTPS", &gq.PolicyEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Decide(&shim.Request{RespPort: 443}).Verdict != gq.Forward {
		t.Fatal("custom policy broken")
	}
	if d.Decide(&shim.Request{RespPort: 80}).Verdict != gq.Drop {
		t.Fatal("custom policy broken")
	}
}

type httpsOnly struct{}

func (httpsOnly) Name() string { return "TestOnlyHTTPS" }
func (httpsOnly) Decide(req *shim.Request) gq.Decision {
	if req.RespPort == 443 {
		return gq.Decision{Verdict: gq.Forward}
	}
	return gq.Decision{Verdict: gq.Drop}
}

func TestPublicConfigAndTriggerParsers(t *testing.T) {
	cfg, err := gq.ParsePolicyConfig("[VLAN 16-17]\nDecider = Rustock\n")
	if err != nil || len(cfg.VLANRules) != 1 {
		t.Fatal(err)
	}
	tr, err := gq.ParseTrigger("*:25/tcp / 30min < 1 -> revert")
	if err != nil || tr.Action != "revert" {
		t.Fatal(err)
	}
}

func TestPublicTable1AndFamilies(t *testing.T) {
	if len(gq.Table1) != 66 {
		t.Fatalf("Table1 rows %d", len(gq.Table1))
	}
	fams := gq.MalwareFamilies()
	if len(fams) < 7 {
		t.Fatalf("families %v", fams)
	}
	s := gq.NewSample("a.exe", "rustock", []byte("MZ"))
	if len(s.MD5) != 32 {
		t.Fatalf("md5 %q", s.MD5)
	}
}

func TestPublicWormExperiment(t *testing.T) {
	e, err := gq.NewWormExperiment(3, gq.Table1[28], 3)
	if err != nil {
		t.Fatal(err)
	}
	e.Farm.Run(30 * time.Second)
	e.Seed()
	e.Farm.Run(5 * time.Minute)
	if len(e.Infections) < 2 {
		t.Fatal("no chain")
	}
}
