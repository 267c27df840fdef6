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
// With -sharded each subfarm runs in its own simulation domain, the
// external hosts share one external domain, and -workers goroutines drive
// the whole topology under conservative lookahead synchronization (see
// internal/sim). The result is deterministic for a given seed whatever the
// worker count, but the trunk lookahead shifts cross-domain timing, so a
// sharded run is not byte-identical to the serial run of the same seed.
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
// loop, so -serve composes with -sharded.
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
	"gq/internal/experiments"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/ops"
	"gq/internal/policy"
	"gq/internal/trace"
)

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
	anonymize := fs.Bool("anonymize", true, "mask global addresses in the report")
	metricsPath := fs.String("metrics", "", "write the final telemetry snapshot to this file")
	metricsFormat := fs.String("metrics-format", "json", "format for -metrics: json, prom (Prometheus text), or text")
	eventsPath := fs.String("events", "", "stream the event journal (NDJSON) to this file")
	flightDir := fs.String("flight-dir", ".", "directory for flight-recorder dumps when the run fails")
	drain := fs.Duration("drain", 3*time.Minute, "virtual time to drain after retiring the inmates")
	verify := fs.Bool("verify", false, "run a containment probe after the experiment and fail on escapes")
	chaosSpec := fs.String("chaos", "", "fault-injection profile: preset (soak, light, crash) and/or key=value overrides; see internal/chaos")
	sharded := fs.Bool("sharded", false, "run each subfarm in its own simulation domain and the external hosts in one external domain (deterministic parallel execution)")
	workers := fs.Int("workers", 0, "with -sharded: worker goroutines driving the domains (0 = GOMAXPROCS)")
	treeFlag := fs.Bool("tree", false, "attach the farm-wide supervision tree: per-subfarm supervisors (CS, sinks, controller probes) under a root node with the controller restart ladder, recycler progress watches, external-host watches, and dead-man lockdown escalation")
	deadmanBudget := fs.Duration("deadman", 0, "with -serve and -tree: wall-clock dead-man budget — if the soak loop itself stalls past it, drive the farm into global fail-closed lockdown")
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
			*drain = experiments.SoakDrain
		}
	}

	text := farm.BotfarmPolicy(2, 2)
	if *cfgPath != "" {
		b, err := os.ReadFile(*cfgPath)
		if err != nil {
			return fail(err)
		}
		text = string(b)
	}

	// The Botfarm, its VLAN range and sample library derived from the
	// Fig. 6 text, with the GMail MX that fingerprints Waledac-class HELOs.
	gmailAddr := netstack.MustParseAddr("172.217.0.25")
	botfarm := farm.Botfarm()
	botfarm.PolicyConfig = text
	botfarm.CCHosts = farm.SteephostCC()
	botfarm.CCHosts["GMailMX"] = policy.AddrPort{Addr: gmailAddr, Port: 25}
	botfarm.GMailMX = gmailAddr
	botfarm.SinkDropProb = *dropProb
	botfarm.BannerGrab = true
	for i := 0; i < *inmates; i++ {
		botfarm.Inmates = append(botfarm.Inmates, fmt.Sprintf("inmate-%d", i))
	}
	botfarm.Iron = *rawIron
	botfarm.IronCycle = farm.RecyclerConfig{Capture: true}
	plan := experiments.Plan{
		Spec: farm.Spec{
			Layout:    farm.Layout{Seed: *seed, Sharded: *sharded, Workers: *workers},
			External:  []farm.ExternalHost{farm.Steephost("cc"), {Name: "gmail", Addr: gmailAddr, Serve: serveGMail}},
			Subfarms:  []farm.SubfarmSpec{botfarm},
			Supervise: *treeFlag,
		},
		Drain: *drain,
	}
	if *chaosSpec != "" {
		plan.Faults = []chaos.Profile{chaosProfile}
	}

	// The NDJSON journal streams to -events from the first event on; the
	// runner flushes it on every path out of the run.
	if *eventsPath != "" {
		eventsFile, err := os.Create(*eventsPath)
		if err != nil {
			return fail(err)
		}
		defer eventsFile.Close()
		plan.Spec.Journal = eventsFile
	}
	var traceW *trace.Writer
	if *tracePath != "" {
		fh, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer fh.Close()
		traceW = trace.NewWriter(fh)
		plan.Spec.Subfarms[0].Trace = traceW
	}
	say := func(format string, args ...any) experiments.Phase {
		return func(*experiments.Run) error { fmt.Fprintf(stderr, "gqfarm: "+format+"\n", args...); return nil }
	}
	plan.OnBuild = func(f *farm.Farm) error {
		for _, w := range f.Warnings {
			fmt.Fprintf(stderr, "gqfarm: warning: %s\n", w)
		}
		if *rawIron > 0 {
			fmt.Fprintf(stderr, "gqfarm: %d raw-iron inmates on the recycling pipeline\n", *rawIron)
		}
		if *treeFlag {
			fmt.Fprintln(stderr, "gqfarm: supervision tree attached (root + per-subfarm nodes)")
		}
		if *deadmanBudget > 0 && (*serveAddr == "" || !*treeFlag) {
			return fmt.Errorf("-deadman needs both -serve and -tree")
		}
		return nil
	}
	plan.Phases = []experiments.Phase{experiments.Faults}
	if *chaosSpec != "" {
		plan.Phases = append(plan.Phases, say("chaos profile %s", chaosProfile))
	}

	if *serveAddr != "" {
		r, err := experiments.Start(plan)
		if err != nil {
			return fail(err)
		}
		defer r.FlushJournal()
		if err := r.Do(plan.Phases...); err != nil {
			return fail(err)
		}
		return serve(r.Farm, *serveAddr, *speed, *deadmanBudget, *anonymize, *metricsPath, *metricsFormat, stdout, stderr, fail)
	}

	var start time.Time
	plan.Phases = append(plan.Phases,
		say("running %d inmates for %v of virtual time...", *inmates, *dur),
		func(*experiments.Run) error { start = time.Now(); return nil },
		experiments.RunFor(*dur),
		func(r *experiments.Run) error {
			fmt.Fprintf(stderr, "gqfarm: done in %v wall time (%d events)\n",
				time.Since(start).Round(time.Millisecond), r.Sim.Fired)
			if r.Coord != nil {
				if rounds, windows := r.Coord.Stats(); rounds > 0 {
					fmt.Fprintf(stderr, "gqfarm: sharded: %.2f domains busy per synchronization round\n",
						float64(windows)/float64(rounds))
				}
			}
			return nil
		})
	if *verify {
		plan.Phases = append(plan.Phases, experiments.ProbeRound(nil),
			func(r *experiments.Run) error { fmt.Fprintf(stderr, "gqfarm: %s\n", r.Probes[0][0]); return nil })
	}
	// The wind-down retires the inmates, ends injection and drains, so a
	// healthy farm ends with an empty flow table; the shared checks demand it.
	r, err := experiments.Execute(plan)
	if err != nil {
		return fail(err)
	}
	f, sf := r.Farm, r.Subfarms[0]
	for _, inj := range r.Injectors {
		fmt.Fprintf(stderr, "gqfarm: chaos injection stopped (%d CS crashes injected)\n", inj.Crashes)
	}
	if sup := sf.Supervisor; sup != nil {
		fmt.Fprintf(stderr, "gqfarm: supervisor: %d recoveries %v\n", len(sup.Recoveries), sup.Recoveries)
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

	if len(r.Problems) > 0 {
		dumpPath, err := writeFlightDumps(f, *flightDir)
		if err != nil {
			dumpPath = "(dump failed: " + err.Error() + ")"
		}
		// One subfarm: its name on every finding adds nothing.
		failed := strings.ReplaceAll(strings.Join(r.Problems, "; "), sf.Name+": ", "")
		fmt.Fprintf(stderr, "gqfarm: FAILED: %s — flight recorder at %s\n", failed, dumpPath)
		return 1
	}
	return 0
}

// serveGMail is the GMail MX: it blacklists the sender of every
// fingerprinted HELO. The MX fires the callback in its own domain; the CBL
// is root-domain state.
func serveGMail(f *farm.Farm, h *host.Host) error {
	gmail, err := malware.NewGMailMX(h, []string{"wergvan"})
	if err != nil {
		return err
	}
	gmail.OnFingerprint = func(sender netstack.Addr, helo string) {
		h.Sim().Hop(f.Sim, func() { f.CBL.List(sender, "HELO "+helo+" fingerprinted") })
	}
	return nil
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
