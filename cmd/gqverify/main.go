// Command gqverify implements the paper's §8 wish list: "a traffic
// generation tool that can automatically produce test cases for a given
// concrete containment policy would strengthen confidence in the policy's
// correctness significantly."
//
// It verifies a containment policy two ways:
//
//  1. statically — the policy prober enumerates a probe matrix of flow
//     four-tuples, collects the verdicts, and checks declarative safety
//     rules (no raw SMTP to the Internet, no exploit ports out, ...);
//
//  2. dynamically — a live farm is built with the policy installed, a
//     probe inmate generates real flows toward canary hosts, and every
//     byte that reaches a canary is reported as an escape.
//
//     gqverify -policy Rustock
//     gqverify -policy AllowAll     # demonstrates violation reporting
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/policy"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, "gqverify:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("policy", "DefaultDeny", "containment policy to verify (see -list)")
	list := flag.Bool("list", false, "list registered policies")
	seed := flag.Int64("seed", 1, "simulation seed for the live probe")
	flag.Parse()

	if *list {
		for _, n := range policy.Names() {
			fmt.Println(n)
		}
		return
	}

	// The farm the policy will run in; its policy environment — sink
	// locations, internal prefix, C&C table — is what the static audit
	// judges the verdicts against.
	f, err := farm.Spec{
		Layout: farm.Layout{Seed: *seed},
		Subfarms: []farm.SubfarmSpec{{SubfarmConfig: farm.SubfarmConfig{
			Name:   "verify",
			VLANLo: 16, VLANHi: 20,
			GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
			FallbackPolicy: *name,
			CCHosts: map[string]policy.AddrPort{
				"Grum":  {Addr: farm.SteephostAddr, Port: 80},
				"MegaD": {Addr: netstack.MustParseAddr("198.51.100.77"), Port: 4560},
			},
		}}},
	}.Build()
	if err != nil {
		die(err)
	}
	env := f.Subfarms[0].Policy
	d, err := policy.New(*name, env)
	if err != nil {
		die(err)
	}

	// Phase 1: static verdict audit.
	p := &policy.Prober{Cases: policy.DefaultCases(env), Rules: policy.StandardSafetyRules(env)}
	violations, hist := p.Verify(d)
	fmt.Print(policy.Report(*name, violations, hist))

	// Phase 2: live enforcement probe.
	fmt.Println("\nLive enforcement probe (canary hosts on the simulated Internet):")
	out, err := farm.RunContainmentProbe(f, f.Subfarms[0], nil, 3*time.Minute)
	if err != nil {
		die(err)
	}
	fmt.Printf("  %s\n", out)
	// Escapes on the never-allowed ports are containment failures; other
	// escapes are deliberate C&C lifeline exposure (Fig. 7 shows Rustock
	// FORWARDing https to *.*.*.*) and are reported for analyst review.
	fatalPorts := map[string]bool{":25": true, ":135": true, ":139": true, ":445": true, ":3389": true}
	fatalEscapes := 0
	for _, esc := range out.Escaped() {
		fatal := false
		for suffix := range fatalPorts {
			if strings.HasSuffix(esc, suffix) {
				fatal = true
			}
		}
		if fatal {
			fatalEscapes++
			fmt.Printf("  ESCAPED (VIOLATION): probe bytes reached %s\n", esc)
		} else {
			fmt.Printf("  escaped (lifeline exposure, review): %s\n", esc)
		}
	}

	if len(violations) > 0 || fatalEscapes > 0 {
		fmt.Println("\nverdict: policy is NOT safe for deployment")
		os.Exit(1)
	}
	if n := len(out.Escaped()); n > 0 {
		fmt.Printf("\nverdict: no violations; %d deliberate lifeline exposure(s) to review\n", n)
		return
	}
	fmt.Println("\nverdict: no violations, no escapes")
}
