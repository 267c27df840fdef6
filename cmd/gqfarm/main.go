// Command gqfarm runs a GQ malware farm from a Fig. 6-style containment
// configuration file, populates it with inmates, executes for a configured
// virtual duration, and prints the Fig. 7 activity report with a telemetry
// snapshot appended.
//
//	gqfarm -config botfarm.conf -inmates 4 -duration 2h -trace run.pcap \
//	       -metrics run.json -events run.ndjson
//
// Sample binaries are synthesised from the configuration's Infection
// globs: the glob's first dotted component selects the behavioural family
// (rustock, grum, waledac, megad, storm-proxy, clickbot, dgabot).
//
// With -chaos the run executes under injected faults (see internal/chaos):
// link impairment and flaps on the inmate access links, containment-server
// crash/restart cycles, stalled verdicts, and sink outages. The spec is a
// preset name ("soak", "light", "crash") optionally followed by
// comma-separated key=value overrides, e.g. -chaos soak,loss=0.10.
// Injection stops before the drain, so the health checks still demand a
// farm that degraded gracefully.
//
// With -shards N each subfarm runs in its own simulation domain, the
// external hosts are hash-spread across N external domains, and -workers
// goroutines drive the whole topology under conservative lookahead
// synchronization (see internal/sim). The result is deterministic for a
// given seed whatever the worker count, but the trunk lookahead shifts
// cross-domain timing, so a sharded run is not byte-identical to the
// serial run of the same seed.
//
// With -rawiron N the subfarm gains N raw-iron inmates on the recycling
// pipeline (see internal/rawiron and farm.Recycler): each box detonates
// its specimen, is captured and reimaged over the shared PXE/TFTP trunk,
// and re-admitted — endlessly, until shutdown. Machine lifecycle state is
// served on GET /machines; POST /recycle/{inmate} forces a box out of its
// detonation window early.
//
// With -serve the farm runs as a long-lived soak paced against real time
// (-speed × real time) with the live ops plane (see internal/ops) mounted
// on the given address: SSE journal streaming on /events, metrics on
// /metrics (Prometheus text, JSON, or human text), flight-recorder dumps
// on /flights, raw-iron machine state on /machines, health on /healthz,
// pprof under /debug/pprof/, and runtime control via POST /policy,
// /chaos, /quarantine/{inmate}, and /recycle/{inmate}. -duration is
// ignored — the soak runs until SIGINT/SIGTERM, then shuts down cleanly
// (report, metrics, journal flush) and exits 0. On a sharded farm the
// control endpoints post their actions into the owning domain's event
// loop, so -serve composes with -shards.
//
// The run is health-checked: if it ends with flows still open in the
// gateway, with inmate addresses on the blacklist, or (with -verify) with
// containment-probe traffic escaping the farm, gqfarm writes the flight
// recorder to disk, prints a one-line diagnostic naming the dump, and
// exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/ops"
	"gq/internal/policy"
	"gq/internal/rawiron"
	"gq/internal/smtpx"
	"gq/internal/supervisor"
	"gq/internal/trace"
)

const defaultConfig = `[VLAN 16-17]
Decider = Rustock
Infection = rustock.100921.*.exe

[VLAN 18-19]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code made explicit so deferred cleanups —
// most importantly the NDJSON journal flush — execute on the failure
// path too, and so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gqfarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgPath := fs.String("config", "", "containment configuration file (Fig. 6 format; built-in Botfarm demo if empty)")
	inmates := fs.Int("inmates", 4, "number of inmates to create")
	dur := fs.Duration("duration", time.Hour, "virtual run duration")
	seed := fs.Int64("seed", 1, "simulation seed")
	dropProb := fs.Float64("sink-drop", 0.35, "SMTP sink probabilistic connection drop")
	tracePath := fs.String("trace", "", "write the subfarm packet trace to this pcap file")
	nanoTrace := fs.Bool("nano-trace", false, "use nanosecond pcap timestamps for -trace")
	anonymize := fs.Bool("anonymize", true, "mask global addresses in the report")
	metricsPath := fs.String("metrics", "", "write the final telemetry snapshot to this file")
	metricsFormat := fs.String("metrics-format", "json", "format for -metrics: json, prom (Prometheus text), or text")
	eventsPath := fs.String("events", "", "stream the event journal (NDJSON) to this file")
	flightDir := fs.String("flight-dir", ".", "directory for flight-recorder dumps when the run fails")
	drain := fs.Duration("drain", 3*time.Minute, "virtual time to drain after retiring the inmates")
	verify := fs.Bool("verify", false, "run a containment probe after the experiment and fail on escapes")
	chaosSpec := fs.String("chaos", "", "fault-injection profile: preset (soak, light, crash) and/or key=value overrides; see internal/chaos")
	shards := fs.Int("shards", 0, "with N > 0: run each subfarm in its own simulation domain and spread external hosts across N external domains (deterministic parallel execution)")
	workers := fs.Int("workers", 0, "with -shards: worker goroutines driving the domains (0 = GOMAXPROCS)")
	supervise := fs.Bool("supervise", false, "attach the containment-plane supervisor: heartbeat health, fail-closed failover, supervised restarts, inmate quarantine")
	treeFlag := fs.Bool("tree", false, "attach the farm-wide supervision tree: per-subfarm supervisors (CS, sinks, controller probes) under a root node with the controller restart ladder, recycler progress watches, shard-host watches, and dead-man lockdown escalation (implies -supervise)")
	deadmanBudget := fs.Duration("deadman", 0, "with -serve and -tree: wall-clock dead-man budget — if the soak loop itself stalls past it, drive the farm into global fail-closed lockdown")
	supHB := fs.Duration("supervise-hb", 0, "with -supervise: heartbeat probe cadence (0 = default 5s)")
	supK := fs.Int("supervise-k", 0, "with -supervise: consecutive missed heartbeats marking an endpoint down (0 = default 3)")
	supBreaker := fs.Int("supervise-breaker", 0, "with -supervise: restarts within the breaker window before quarantine (0 = default 5)")
	rawIron := fs.Int("rawiron", 0, "raw-iron inmates to add on the recycling pipeline (detonate → capture → reimage → re-admit)")
	serveAddr := fs.String("serve", "", "serve the live ops plane on this address and soak until SIGTERM")
	speed := fs.Float64("speed", 1, "with -serve: virtual-to-wall time ratio of the soak")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gqfarm:", err)
		return 1
	}

	switch *metricsFormat {
	case "json", "prom", "text":
	default:
		return fail(fmt.Errorf("unknown -metrics-format %q (json, prom, text)", *metricsFormat))
	}
	var chaosProfile chaos.Profile
	if *chaosSpec != "" {
		p, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return fail(err)
		}
		chaosProfile = p
		// Under injected faults the flow table holds reaped-but-idle
		// entries for up to the splice-idle sweep horizon; give the drain
		// room for every sweep to fire unless the user pinned it.
		drainSet := false
		fs.Visit(func(fl *flag.Flag) { drainSet = drainSet || fl.Name == "drain" })
		if !drainSet {
			*drain = 12 * time.Minute
		}
	}

	text := defaultConfig
	if *cfgPath != "" {
		b, err := os.ReadFile(*cfgPath)
		if err != nil {
			return fail(err)
		}
		text = string(b)
	}
	pcfg, err := policy.Parse(text)
	if err != nil {
		return fail(err)
	}

	// Synthesise a sample library from the Infection globs.
	var library []*policy.Sample
	known := map[string]bool{}
	for _, fam := range malware.Families() {
		known[fam] = true
	}
	var maxVLAN uint16
	for _, rule := range pcfg.VLANRules {
		if rule.Hi > maxVLAN {
			maxVLAN = rule.Hi
		}
		if rule.Infection == "" {
			continue
		}
		family := strings.SplitN(rule.Infection, ".", 2)[0]
		if !known[family] {
			fmt.Fprintf(stderr, "gqfarm: warning: no behavioural model for family %q\n", family)
			continue
		}
		name := strings.Replace(rule.Infection, "*", "001", 1)
		library = append(library, policy.NewSample(name, family, []byte("MZ-"+name)))
	}

	var f *farm.Farm
	if *shards > 0 {
		f = farm.NewShardedN(*seed, *workers, *shards)
	} else {
		f = farm.New(*seed)
	}
	ccAddr := netstack.MustParseAddr("50.8.207.91")
	cc := f.AddExternalHost("cc", ccAddr)
	if _, err := malware.NewCCServer(cc, malware.CCConfig{
		Template: "pharma special",
		Targets: []netstack.Addr{
			netstack.MustParseAddr("203.0.113.25"),
			netstack.MustParseAddr("203.0.113.26"),
		},
		Forbidden: []string{"DDOS 203.0.113.99"},
	}); err != nil {
		return fail(err)
	}
	gmailAddr := netstack.MustParseAddr("172.217.0.25")
	gmailHost := f.AddExternalHost("gmail", gmailAddr)
	gmail, err := malware.NewGMailMX(gmailHost, []string{"wergvan"})
	if err != nil {
		return fail(err)
	}
	// The MX fires this callback in gmailHost's domain; the CBL is
	// root-domain state.
	gmail.OnFingerprint = func(sender netstack.Addr, helo string) {
		gmailHost.Sim().Hop(f.Sim, func() { f.CBL.List(sender, "HELO "+helo+" fingerprinted") })
	}

	lo := pcfg.VLANRules[0].Lo
	sf, err := f.AddSubfarm(farm.SubfarmConfig{
		Name:   "Botfarm",
		VLANLo: lo, VLANHi: maxVLAN + 4,
		ServiceVLAN:   11,
		GlobalPool:    netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:     netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig:  text,
		SampleLibrary: library,
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock":  {Addr: ccAddr, Port: 443},
			"Grum":     {Addr: ccAddr, Port: 80},
			"MegaD":    {Addr: ccAddr, Port: 4560},
			"Clickbot": {Addr: ccAddr, Port: 8080},
			"GMailMX":  {Addr: gmailAddr, Port: 25},
		},
		GMailMX:        gmailAddr,
		SinkDropProb:   *dropProb,
		SinkStrictness: smtpx.Lenient,
		BannerGrab:     true,
	})
	if err != nil {
		return fail(err)
	}

	// Attach the NDJSON journal sink before any traffic flows so the journal
	// covers the whole run (the verdict namer is already installed by
	// farm.New, so verdict bits render symbolically). Deferred LIFO order
	// flushes the sink before closing the file — on every exit path.
	if *eventsPath != "" {
		eventsFile, err := os.Create(*eventsPath)
		if err != nil {
			return fail(err)
		}
		defer eventsFile.Close()
		sink := f.Sim.Obs().Journal.AttachNDJSON(eventsFile)
		defer sink.Flush()
	}

	var traceW *trace.Writer
	if *tracePath != "" {
		fh, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer fh.Close()
		if *nanoTrace {
			traceW = trace.NewNanoWriter(fh)
		} else {
			traceW = trace.NewWriter(fh)
		}
		// The tap fires in the router's domain; stamp packets with that
		// domain's clock (under -shards the router lives in the subfarm's
		// domain, not the farm root).
		sf.Router.AddTap(func(p *netstack.Packet) {
			traceW.WritePacket(sf.Sim.WallClock(), p.Marshal())
		})
	}

	for i := 0; i < *inmates; i++ {
		if _, err := sf.AddInmate(fmt.Sprintf("inmate-%d", i)); err != nil {
			return fail(err)
		}
	}

	// Raw-iron inmates join after the VM inmates so VLAN allocation stays
	// stable, and before chaos so reimage faults install on the controller.
	var recycler *farm.Recycler
	if *rawIron > 0 {
		if recycler, err = sf.StartIronRotation(*rawIron, rawiron.Config{MaxConcurrent: 2}, farm.RecyclerConfig{Capture: true}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "gqfarm: %d raw-iron inmates on the recycling pipeline\n", *rawIron)
	}

	var sup *supervisor.Supervisor
	supCfg := supervisor.Config{
		HeartbeatEvery:   *supHB,
		MissThreshold:    *supK,
		BreakerThreshold: *supBreaker,
	}
	if *treeFlag {
		// The tree supervises every subfarm (idempotent over any earlier
		// Supervise) plus the farm root's own dependencies. Attached after
		// the recycler so its progress watch covers the pipeline.
		f.SuperviseTree(supCfg)
		sup = sf.Supervisor
		fmt.Fprintln(stderr, "gqfarm: supervision tree attached (root + per-subfarm nodes)")
	} else if *supervise {
		sup = sf.Supervise(supCfg)
		fmt.Fprintln(stderr, "gqfarm: containment-plane supervisor attached")
	}
	if *deadmanBudget > 0 && (*serveAddr == "" || !*treeFlag) {
		return fail(fmt.Errorf("-deadman needs both -serve and -tree"))
	}

	// Fault injection covers the inmate links present now; applied after
	// the inmates so every access link is impaired.
	var injector *chaos.Injector
	if *chaosSpec != "" {
		injector = chaos.Apply(sf, chaosProfile)
		fmt.Fprintf(stderr, "gqfarm: chaos profile %s\n", chaosProfile)
	}

	if *serveAddr != "" {
		return serve(f, *serveAddr, *speed, *deadmanBudget, *anonymize, *metricsPath, *metricsFormat, stdout, stderr, fail)
	}

	fmt.Fprintf(stderr, "gqfarm: running %d inmates for %v of virtual time...\n", *inmates, *dur)
	start := time.Now()
	f.Run(*dur)
	fmt.Fprintf(stderr, "gqfarm: done in %v wall time (%d events)\n",
		time.Since(start).Round(time.Millisecond), f.Sim.Fired)
	if f.Coord != nil {
		if rounds, windows := f.Coord.Stats(); rounds > 0 {
			fmt.Fprintf(stderr, "gqfarm: sharded: %.2f domains busy per synchronization round\n",
				float64(windows)/float64(rounds))
		}
	}

	// Health checks: probe containment if asked, then retire the inmates and
	// drain so the flow table can empty.
	var failures []string
	if *verify {
		out, err := farm.RunContainmentProbe(f, sf, nil, 2*time.Minute)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "gqfarm: %s\n", out)
		if escaped := out.Escaped(); len(escaped) > 0 {
			failures = append(failures,
				fmt.Sprintf("containment probe escaped to %s", strings.Join(escaped, ", ")))
		}
	}
	if recycler != nil {
		// Stop opening detonation windows before retiring the inmates;
		// in-flight capture/reimage operations run out during the drain.
		recycler.Stop()
	}
	f.RetireInmates()
	if injector != nil {
		// End injection before the drain: links come back up, stalls clear,
		// and any crashed containment server is restarted (by the supervisor
		// when one is attached, by the injector's restore otherwise), so a
		// healthy farm must end with an empty flow table.
		injector.Stop()
		fmt.Fprintf(stderr, "gqfarm: chaos injection stopped (%d CS crashes injected)\n", injector.Crashes)
	}
	f.Run(*drain)

	if sup != nil {
		fmt.Fprintf(stderr, "gqfarm: supervisor: %d recoveries %v\n", len(sup.Recoveries), sup.Recoveries)
		for i := range sf.CSCluster {
			if !sup.Healthy(i) && !sup.Quarantined(i) {
				failures = append(failures, fmt.Sprintf("containment server %d still down after drain", i))
			}
		}
	}

	open := 0
	for _, sub := range f.Subfarms {
		open += sub.Router.ActiveFlows()
	}
	if open > 0 {
		failures = append(failures, fmt.Sprintf("%d flows still open after drain", open))
		f.Sim.Obs().Journal.DumpAll("run ended with open flows")
	}
	if n := f.CBL.ListedCount(); n > 0 {
		failures = append(failures, fmt.Sprintf("%d inmate addresses blacklisted", n))
	}

	fmt.Fprintln(stdout, f.Reporter(*anonymize).Generate())
	if traceW != nil {
		if err := traceW.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "gqfarm: wrote %d packets (%d bytes) to %s\n",
			traceW.Packets, traceW.Bytes, *tracePath)
	}
	if *metricsPath != "" {
		if err := writeMetricsFile(f, *metricsPath, *metricsFormat); err != nil {
			return fail(err)
		}
	}

	if len(failures) > 0 {
		dumpPath, err := writeFlightDumps(f, *flightDir)
		if err != nil {
			dumpPath = "(dump failed: " + err.Error() + ")"
		}
		fmt.Fprintf(stderr, "gqfarm: FAILED: %s — flight recorder at %s\n",
			strings.Join(failures, "; "), dumpPath)
		return 1
	}
	return 0
}

// serve runs the farm as a real-time-paced soak with the ops plane mounted
// on addr until SIGINT/SIGTERM, then shuts down cleanly: HTTP drained,
// report printed, metrics written, exit 0 (journal flushing is handled by
// run's defers).
func serve(f *farm.Farm, addr string, speed float64, deadmanBudget time.Duration, anonymize bool,
	metricsPath, metricsFormat string, stdout, stderr io.Writer, fail func(error) int) int {
	j := f.Sim.Obs().Journal
	fan := obs.NewFanout(j.Sink())
	j.SetSink(fan)
	drv := ops.NewDriver(f.Sim, speed)
	osrv, err := ops.NewServer(ops.Config{Farm: f, Fanout: fan, Driver: drv})
	if err != nil {
		return fail(err)
	}
	if deadmanBudget > 0 {
		// Wall-clock dead-man over the soak loop: the supervision tree
		// watches everything inside the simulation, this watches the
		// simulation itself. A stalled loop is driven into global lockdown
		// through the normal Driver doorway — if the loop is too wedged to
		// pick the action up before the control timeout, it stays queued
		// and executes the moment the loop revives, lockdown first.
		dm := ops.NewDeadman(drv, deadmanBudget, func(stalled time.Duration) {
			fmt.Fprintf(stderr, "gqfarm: dead-man: no soak progress for %v — engaging global lockdown\n",
				stalled.Round(time.Millisecond))
			reason := fmt.Sprintf("ops dead-man: soak stalled %v", stalled.Round(time.Second))
			if err := drv.Do(ops.DefaultControlTimeout, f.Sim, func() error {
				f.Tree.GlobalLockdown(reason)
				return nil
			}); err != nil {
				fmt.Fprintf(stderr, "gqfarm: dead-man: sim loop unresponsive (%v) — lockdown queued for when it revives\n", err)
			}
		})
		defer dm.Stop()
		fmt.Fprintf(stderr, "gqfarm: dead-man switch armed (budget %v)\n", deadmanBudget)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: osrv.Handler()}
	go hs.Serve(ln)
	fmt.Fprintf(stderr, "gqfarm: serving ops plane on http://%s (speed %gx, pid %d)\n",
		ln.Addr(), speed, os.Getpid())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(stderr, "gqfarm: caught %v — stopping the soak\n", sig)
		drv.Stop()
	}()

	start := time.Now()
	drv.Run() // the calling goroutine is the sim goroutine until Stop

	// Drain ordinary requests briefly, then cut lingering SSE streams.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if hs.Shutdown(ctx) != nil {
		hs.Close()
	}

	fmt.Fprintf(stderr, "gqfarm: soak ended at %v virtual after %v wall (%d events, %d journal drops across %d subscribers)\n",
		f.Sim.ObservedNow(), time.Since(start).Round(time.Millisecond),
		f.Sim.Fired, fan.Dropped(), fan.Subscribers())
	fmt.Fprintln(stdout, f.Reporter(anonymize).Generate())
	if metricsPath != "" {
		if err := writeMetricsFile(f, metricsPath, metricsFormat); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeMetricsFile writes the final telemetry snapshot in the chosen
// format (validated during flag parsing).
func writeMetricsFile(f *farm.Farm, path, format string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	snap := f.Sim.Obs().Snapshot()
	switch format {
	case "prom":
		return snap.WriteProm(fh)
	case "text":
		return snap.WriteText(fh)
	default:
		return snap.WriteJSON(fh)
	}
}

// writeFlightDumps serializes every retained flight-recorder dump into one
// NDJSON file under dir and returns its path.
func writeFlightDumps(f *farm.Farm, dir string) (string, error) {
	dumps := f.FlightDumps()
	if len(dumps) == 0 {
		dumps = f.Sim.Obs().Journal.DumpAll("gqfarm failure")
	}
	path := filepath.Join(dir, "gqfarm-flight.ndjson")
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	for _, d := range dumps {
		if err := f.Sim.Obs().Journal.WriteDump(fh, d); err != nil {
			return "", err
		}
	}
	return path, nil
}
