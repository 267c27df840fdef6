// Package gq is a from-scratch reproduction of GQ, the malware execution
// farm of Kreibich, Weaver, Kanich, Cui, and Paxson — "GQ: Practical
// Containment for Measuring Modern Malware Systems" (IMC 2011).
//
// GQ's design makes per-flow containment decisions first-order primitives:
// a central gateway redirects every new flow entering or leaving the
// inmate network to a containment server, which issues a verdict — FORWARD,
// LIMIT, DROP, REDIRECT, REFLECT, or REWRITE — via a shimming protocol
// injected into the flow itself. The gateway then enforces endpoint
// control on its own, while content control keeps the containment server
// in the path as a transparent rewriting proxy.
//
// The top-level API describes a complete farm as a value and builds it:
//
//	f, _ := gq.Spec{
//		Layout:   gq.Layout{Seed: seed},
//		Subfarms: []gq.SubfarmSpec{{SubfarmConfig: gq.SubfarmConfig{ ... }, Inmates: []string{"rustock-0"}}},
//	}.Build()
//	f.Run(time.Hour)
//	fmt.Println(f.Reporter(true).Generate())
//
// Everything the farm depends on is implemented in internal packages: a
// deterministic discrete-event simulator with a userspace TCP/IP stack
// (internal/sim, internal/netstack, internal/host), the learning VLAN
// bridge and links (internal/netsim), the gateway with NAT, safety filter
// and flow splicing (internal/gateway, internal/nat), the containment
// server, policies, and triggers (internal/containment, internal/policy,
// internal/shim), sink servers (internal/sink), inmate life-cycle and
// raw-iron management (internal/inmate, internal/rawiron), infrastructure
// services
// (internal/dhcp, internal/dnsx, internal/smtpx, internal/httpx),
// behavioural malware models (internal/malware), and Bro-style reporting
// with pcap trace recording (internal/report, internal/trace).
//
// The experiments that regenerate the paper's tables and figures live in
// internal/experiments and are exposed through cmd/gqexp and the
// repository-level benchmarks; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-versus-measured results.
package gq

import (
	"gq/internal/containment"
	"gq/internal/farm"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/report"
	"gq/internal/shim"
)

// Re-exported farm assembly types.
type (
	// Farm is a complete GQ deployment: gateway, subfarms, management
	// network, inmate controller, blacklist feed.
	Farm = farm.Farm
	// Subfarm is one independent experiment habitat.
	Subfarm = farm.Subfarm
	// SubfarmConfig parameterises a subfarm.
	SubfarmConfig = farm.SubfarmConfig
	// Spec describes a whole farm as a value — layout, external hosts,
	// subfarms (SubfarmSpec: a SubfarmConfig plus its population),
	// supervision; its Build wires it in the one valid order.
	Spec         = farm.Spec
	Layout       = farm.Layout
	ExternalHost = farm.ExternalHost
	SubfarmSpec  = farm.SubfarmSpec
	// FarmInmate couples inmate life-cycle with its running specimen.
	FarmInmate = farm.FarmInmate
	// WormExperiment is the worm-capturing honeyfarm configuration.
	WormExperiment = farm.WormExperiment
)

// Re-exported containment primitives.
type (
	// Verdict is a containment decision opcode (FORWARD, LIMIT, DROP,
	// REDIRECT, REFLECT, REWRITE — combinable when feasible).
	Verdict = shim.Verdict
	// Decision is a policy's verdict for one flow.
	Decision = containment.Decision
	// Decider is a containment policy.
	Decider = containment.Decider
	// StreamHandler performs content control on REWRITE-contained flows.
	StreamHandler = containment.StreamHandler
	// Trigger is an activity trigger driving inmate life-cycle actions.
	Trigger = containment.Trigger
	// Sample is a malware specimen served by auto-infection.
	Sample = policy.Sample
	// PolicyEnv supplies policies with their subfarm context.
	PolicyEnv = policy.Env
	// Reporter renders Fig. 7-style activity reports.
	Reporter = report.Reporter
	// Addr is an IPv4 address.
	Addr = netstack.Addr
	// Prefix is an IPv4 CIDR block.
	Prefix = netstack.Prefix
	// AddrPort locates a service.
	AddrPort = policy.AddrPort
)

// Containment verdicts (Fig. 2 flow-manipulation modes).
const (
	Forward  = shim.Forward
	Limit    = shim.Limit
	Drop     = shim.Drop
	Redirect = shim.Redirect
	Reflect  = shim.Reflect
	Rewrite  = shim.Rewrite
)

// NewWormExperiment builds the worm-capturing honeyfarm for one Table 1
// capture spec.
func NewWormExperiment(seed int64, spec malware.WormSpec, inmates int) (*WormExperiment, error) {
	return farm.NewWormExperiment(seed, spec, inmates)
}

// NewSample builds an auto-infection sample (computing its MD5).
func NewSample(name, family string, content []byte) *Sample {
	return policy.NewSample(name, family, content)
}

// NewPolicy instantiates a registered containment policy by name
// (DefaultDeny, Rustock, Grum, Waledac, Storm, MegaD, Clickbot,
// WormCapture, ...).
func NewPolicy(name string, env *PolicyEnv) (Decider, error) { return policy.New(name, env) }

// RegisterPolicy adds a custom containment policy to the registry so
// configuration files can reference it by name.
func RegisterPolicy(name string, f func(env *PolicyEnv) Decider) {
	policy.Register(name, f)
}

// PolicyNames lists the registered containment policies.
func PolicyNames() []string { return policy.Names() }

// ParsePolicyConfig parses the Fig. 6 containment server configuration
// format.
func ParsePolicyConfig(text string) (*policy.Config, error) { return policy.Parse(text) }

// ParseTrigger parses the Fig. 6 activity-trigger syntax, e.g.
// "*:25/tcp / 30min < 1 -> revert".
func ParseTrigger(s string) (*Trigger, error) { return containment.ParseTrigger(s) }

// MustParseAddr is ParseAddr for constants; panics on error.
func MustParseAddr(s string) Addr { return netstack.MustParseAddr(s) }

// MustParsePrefix parses "a.b.c.d/n"; panics on error.
func MustParsePrefix(s string) Prefix { return netstack.MustParsePrefix(s) }

// Table1 is the paper's Table 1 worm-capture data.
var Table1 = malware.Table1

// MalwareFamilies lists the behavioural specimen models available for
// auto-infection (rustock, grum, waledac, megad, storm-proxy, clickbot,
// dgabot, split-personality).
func MalwareFamilies() []string { return malware.Families() }
