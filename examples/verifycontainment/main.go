// Verifycontainment: the §4/§8 "verifiable containment" workflow as a
// library user sees it. An analyst has drafted a custom policy for a new
// specimen; before deploying it they (1) audit the verdicts it would issue
// against declarative safety rules and (2) probe a live farm running the
// policy with canary traffic, accounting for every byte that escapes.
package main

import (
	"fmt"
	"time"

	"gq"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
)

// draftPolicy is the analyst's first attempt for a specimen whose C&C
// looked like "HTTP to anywhere": it naively forwards all port-80 traffic
// — the §3 anti-pattern ("generally opening up HTTP would be overzealous,
// as malware might use HTTP both for C&C as well as a burst of SQL
// injection attacks").
type draftPolicy struct{ env *gq.PolicyEnv }

func (draftPolicy) Name() string { return "DraftHTTPOnly" }
func (p draftPolicy) Decide(req *shim.Request) gq.Decision {
	if req.RespPort == 80 {
		return gq.Decision{Verdict: gq.Forward, Annotation: "assumed C&C"}
	}
	sink := p.env.Service(policy.SvcCatchAllSink)
	return gq.Decision{Verdict: gq.Reflect, RespIP: sink.Addr, RespPort: req.RespPort}
}

// tightPolicy is the revision after verification: only the one confirmed
// C&C host keeps its lifeline.
type tightPolicy struct{ env *gq.PolicyEnv }

func (tightPolicy) Name() string { return "TightCC" }
func (p tightPolicy) Decide(req *shim.Request) gq.Decision {
	cc := p.env.CC("Mystery")
	if req.RespIP == cc.Addr && req.RespPort == cc.Port {
		return gq.Decision{Verdict: gq.Forward, Annotation: "confirmed C&C"}
	}
	sink := p.env.Service(policy.SvcCatchAllSink)
	return gq.Decision{Verdict: gq.Reflect, RespIP: sink.Addr, RespPort: req.RespPort}
}

func init() {
	gq.RegisterPolicy("DraftHTTPOnly", func(env *gq.PolicyEnv) gq.Decider { return draftPolicy{env} })
	gq.RegisterPolicy("TightCC", func(env *gq.PolicyEnv) gq.Decider { return tightPolicy{env} })
}

func verify(name string) (violations int, escapes []string) {
	env := &gq.PolicyEnv{
		Services: map[string]gq.AddrPort{
			policy.SvcCatchAllSink: {Addr: gq.MustParseAddr("10.3.0.2")},
		},
		InternalPrefix: gq.MustParsePrefix("10.0.0.0/16"),
		CCHosts:        map[string]gq.AddrPort{"Mystery": {Addr: gq.MustParseAddr("50.8.207.91"), Port: 80}},
	}
	d, err := gq.NewPolicy(name, env)
	if err != nil {
		panic(err)
	}

	// Phase 1: static audit.
	prober := &policy.Prober{Cases: policy.DefaultCases(env), Rules: policy.StandardSafetyRules(env)}
	vs, hist := prober.Verify(d)
	fmt.Print(policy.Report(name, vs, hist))

	// Phase 2: live canary probe.
	f, err := gq.Spec{
		Layout: gq.Layout{Seed: 5},
		Subfarms: []gq.SubfarmSpec{{SubfarmConfig: gq.SubfarmConfig{
			Name: "verify", VLANLo: 16, VLANHi: 20,
			GlobalPool:     gq.MustParsePrefix("192.0.2.0/24"),
			FallbackPolicy: name,
			CCHosts:        env.CCHosts,
		}}},
	}.Build()
	if err != nil {
		panic(err)
	}
	out, err := farm.RunContainmentProbe(f, f.Subfarms[0], append(farm.DefaultProbeTargets(),
		farm.ProbeTarget{Addr: netstack.MustParseAddr("50.8.207.91"), Port: 80}), 3*time.Minute)
	if err != nil {
		panic(err)
	}
	fmt.Printf("live probe: %s\n\n", out)
	return len(vs), out.Escaped()
}

func main() {
	fmt.Println("=== iteration 1: the draft policy ===")
	_, escapes := verify("DraftHTTPOnly")
	fmt.Printf("the probe caught HTTP escaping to arbitrary hosts: %v\n", escapes)
	fmt.Println("-> too broad; narrow the whitelist to the confirmed C&C host.")
	fmt.Println()

	fmt.Println("=== iteration 2: the tightened policy ===")
	_, escapes = verify("TightCC")
	fmt.Printf("remaining escapes (should be only the C&C lifeline): %v\n", escapes)
}
