package main

// The metric and workload catalogue: the one place names, units, directions
// and regression bounds are declared. BENCHMARK.json repeats it for the
// driver; bench_test.go asserts the two agree.

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a later PR may worsen it by; 0 for per-layer metrics
}

// workloadDef declares one workload: its fixed name and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"bulk_dense", "small timer-paced frames: per-frame datapath (netstack, sim heap, netsim retag, gateway splice) does the work, control plane none"},
	{"bulk_dense_sharded", "identical inputs on farm.NewSharded: only sim.Coordinator differs, so wall_s ratio to bulk_dense is the sharding speed-up"},
	{"bulk_proxy", "MSS-sized ACK-clocked frames relayed by containment.Session: per-byte checksum/copy cost and the containment server dominate"},
	{"flow_churn", "short flows cycling the six Fig. 2 verdicts: per-flow control path (flow table, shim, CS round trip, policy, NAT, journal) dominates"},
	{"spam_sparse", "the paper's 7.2 traffic mix (Rustock C&C + reflected SMTP): application layers share time with the datapath, the realism control"},
}

// End-to-end metrics: what an operator of the farm pays (host time, CPU,
// memory) and what the simulated inmates get (virtual goodput). Host-time
// metrics carry no prefix, the virtual one carries a "v". The bounds are set
// from ten-seed spreads on the shared reference box (README, "Sizing
// notes"): host times stay noisy after normalisation, and alloc_mb and
// goodput_vmbit_s differ by ~3% between seeds on spam_sparse. At one seed the
// simulated numbers are exact, and -compare demands they stay identical.
var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"goodput_vmbit_s", "vMbit/s", "higher", 0.10},
}

// Per-layer metrics, <layer>.<name>; layers are this repo's packages.
// Three sources: exact counts over the timed region, *.cpu_ms from the
// traced run's CPU profile, *.rung.* from isolated micro-runs.
var perLayerDefs = []metricDef{
	{"farm.build_ms", "ms", "lower", 0},
	{"farm.boot_ms", "ms", "lower", 0},
	{"farm.run_ms", "ms", "lower", 0},
	{"farm.vsec_per_s", "vs/s", "higher", 0},

	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.cpu_ms", "ms", "lower", 0},
	{"sim.rounds", "count", "lower", 0},
	{"sim.domain_windows", "count", "lower", 0},
	{"sim.domains_per_round", "count", "higher", 0},
	{"sim.rung.sched_fire_1e3_ns", "ns", "lower", 0},
	{"sim.rung.sched_fire_1e5_ns", "ns", "lower", 0},
	{"sim.rung.cancel_ns", "ns", "lower", 0},
	{"sim.rung.sched_allocs", "allocs/op", "lower", 0},

	{"netstack.cpu_ms", "ms", "lower", 0},
	{"netstack.checksum_cpu_ms", "ms", "lower", 0},
	{"netstack.rung.checksum_1460_ns", "ns", "lower", 0},
	{"netstack.rung.parse_64_ns", "ns", "lower", 0},
	{"netstack.rung.parse_1514_ns", "ns", "lower", 0},
	{"netstack.rung.parse_allocs", "allocs/op", "lower", 0},
	{"netstack.rung.marshal_1514_ns", "ns", "lower", 0},
	{"netstack.rung.marshal_allocs", "allocs/op", "lower", 0},
	{"netstack.rung.mutate_ns", "ns", "lower", 0},
	{"netstack.rung.mutate_allocs", "allocs/op", "lower", 0},

	{"netsim.frames_forwarded", "count", "lower", 0},
	{"netsim.frames_flooded", "count", "lower", 0},
	{"netsim.drops", "count", "lower", 0},
	{"netsim.tap_bytes", "B", "lower", 0},
	{"netsim.frame_bytes_p50", "B", "higher", 0},
	{"netsim.cpu_ms", "ms", "lower", 0},
	{"netsim.rung.switch_hop_ns", "ns", "lower", 0},
	{"netsim.rung.retag_hop_ns", "ns", "lower", 0},
	{"netsim.rung.switch_hop_allocs", "allocs/op", "lower", 0},

	{"host.cpu_ms", "ms", "lower", 0},
	{"host.rung.tcp_bulk_mb_s", "MB/s", "higher", 0},
	{"host.rung.tcp_bulk_1write_mb_s", "MB/s", "higher", 0},
	{"host.rung.tcp_bulk_allocs_per_kib", "allocs/KiB", "lower", 0},
	{"host.rung.connect_close_ns", "ns", "lower", 0},

	{"gateway.trunk_rx_frames", "count", "lower", 0},
	{"gateway.flows_created", "count", "higher", 0},
	{"gateway.verdicts_applied", "count", "higher", 0},
	{"gateway.flows_active_end", "count", "lower", 0},
	{"gateway.flows_shed", "count", "lower", 0},
	{"gateway.flows_failclosed", "count", "lower", 0},
	{"gateway.sweep_reaped", "count", "lower", 0},
	{"gateway.retransmits", "count", "lower", 0},
	{"gateway.verdict_vus_p50", "vus", "lower", 0},
	{"gateway.verdict_vus_p99", "vus", "lower", 0},
	{"gateway.safety_drops", "count", "lower", 0},
	{"gateway.limit_drops", "count", "lower", 0},
	{"gateway.router_tap_pkts", "count", "lower", 0},
	{"gateway.upstream_frames", "count", "lower", 0},
	{"gateway.cpu_ms", "ms", "lower", 0},
	{"gateway.rung.flow_setup_us", "us", "lower", 0},
	{"gateway.rung.splice_mb_s", "MB/s", "higher", 0},
	{"gateway.rung.proxy_mb_s", "MB/s", "higher", 0},

	{"nat.exhausted", "count", "lower", 0},
	{"nat.cpu_ms", "ms", "lower", 0},
	{"nat.rung.outbound_ns", "ns", "lower", 0},
	{"nat.rung.inbound_ns", "ns", "lower", 0},

	{"shim.cpu_ms", "ms", "lower", 0},
	{"shim.rung.codec_ns", "ns", "lower", 0},
	{"shim.rung.codec_allocs", "allocs/op", "lower", 0},

	{"policy.decisions", "count", "higher", 0},
	{"policy.cpu_ms", "ms", "lower", 0},
	{"policy.rung.decide_ns", "ns", "lower", 0},
	{"policy.rung.parse_config_us", "us", "lower", 0},

	{"containment.flows_seen", "count", "higher", 0},
	{"containment.rx_pkts", "count", "lower", 0},
	{"containment.cpu_ms", "ms", "lower", 0},

	{"sink.tcp_conns", "count", "higher", 0},
	{"sink.smtp_sessions", "count", "higher", 0},
	{"sink.smtp_data_transfers", "count", "higher", 0},
	{"sink.rx_pkts", "count", "lower", 0},
	{"sink.cpu_ms", "ms", "lower", 0},
	{"malware.cpu_ms", "ms", "lower", 0},
	{"smtpx.rung.session_ns", "ns", "lower", 0},

	{"obs.journal_events", "count", "lower", 0},
	{"obs.journal_bytes", "B", "lower", 0},
	{"obs.cpu_ms", "ms", "lower", 0},
	{"obs.rung.emit_ns", "ns", "lower", 0},
	{"obs.rung.emit_allocs", "allocs/op", "lower", 0},
	{"obs.rung.counter_inc_ns", "ns", "lower", 0},

	{"runtime.gc_cpu_ms", "ms", "lower", 0},
	{"runtime.gc_assist_cpu_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.mallocs", "count", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"runtime.gc_pause_max_us", "us", "lower", 0},
	{"runtime.malloc_cpu_ms", "ms", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.profile_samples", "count", "higher", 0},
	{"bench.failed_ops_pct", "%", "lower", 0},
	{"bench.escaped_bytes", "B", "lower", 0},
}
