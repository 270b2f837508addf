// Command aspeo-bench runs the repo's fixed benchmark suite and writes
// (or checks) the tracked benchmark record BENCH_*.json.
//
// The suite is fully seeded: the six evaluated applications run under
// the energy controller at baseline load (profiled once, at quick
// fidelity, before any measurement starts), then a fleet slice submits
// N controller sessions through the fleet manager's worker pool, and a
// generated population compiled by internal/scenario runs governor-mode
// sessions through the same pool. Each scenario records control cycles
// per wall second, simulated device seconds per wall second, heap
// allocations per control cycle, and the p95 wall-clock latency of one
// control cycle.
//
// Usage:
//
//	aspeo-bench -out BENCH_6.json          # write the tracked record
//	aspeo-bench -check BENCH_6.json        # fail on >10% regression
//	aspeo-bench -cpuprofile cpu.pprof -out /dev/null
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"aspeo/internal/benchrec"
	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/fleet"
	"aspeo/internal/histogram"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/scenario"
	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out        = flag.String("out", "", "write the benchmark record to this path")
		check      = flag.String("check", "", "run the suite and fail on regression against this baseline record")
		tol        = flag.Float64("tol", 0.10, "relative regression tolerance for -check")
		fleetN     = flag.Int("fleet", 256, "fleet-slice session count (0 skips the fleet scenario)")
		genN       = flag.Int("gen", 64, "generated-population session count (0 skips the scenario)")
		seed       = flag.Int64("seed", 101, "base simulation seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the suite) to this path")
	)
	flag.Parse()
	if *out == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "aspeo-bench: nothing to do: pass -out and/or -check")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	logf("calibrating machine speed...")
	rec := benchrec.New()
	rec.CalibScore = benchrec.Calibrate()
	logf("calibration score %.1f iters/us", rec.CalibScore)

	// The suite: the paper's six evaluated applications plus the
	// idle-dominated eBook reader, each under every background load.
	apps := append(workload.Evaluated(), workload.EBook())
	loads := []workload.BGLoad{workload.BaselineLoad, workload.NoLoad, workload.HeavierLoad}

	// Setup, not measurement: profile each cell and measure its
	// default-governor target at quick fidelity, exactly as the Table
	// III campaign derives its controller inputs.
	logf("profiling %d cells (quick fidelity)...", len(apps)*len(loads))
	exp := experiment.Quick()
	type prep struct {
		tab    *profile.Table
		target float64
	}
	preps := make(map[string]prep, len(apps)*len(loads))
	for _, spec := range apps {
		for _, load := range loads {
			tab, err := exp.Profile(spec, load, profile.Coordinated)
			if err != nil {
				return fatal("profiling %s/%s: %v", spec.Name, load, err)
			}
			def, err := exp.MeasureDefault(spec, load)
			if err != nil {
				return fatal("default %s/%s: %v", spec.Name, load, err)
			}
			preps[spec.Name+"/"+load.String()] = prep{tab: tab, target: def.GIPS}
		}
	}

	for _, spec := range apps {
		for _, load := range loads {
			p := preps[spec.Name+"/"+load.String()]
			sc, err := runApp(spec, load, p.tab, p.target, *seed, "controller", 0)
			if err != nil {
				return fatal("%s/%s: %v", spec.Name, load, err)
			}
			logScenario(sc)
			rec.Scenarios = append(rec.Scenarios, sc)
		}
	}

	// Idle-dominated wall-time cells: hour-scale σ=0 sessions where the
	// event core's closed-form spans dominate (Compare's geomean gate
	// keeps their throughput from silently eroding).
	for _, spec := range []*workload.Spec{workload.SpotifyIdle(), workload.EBookIdle()} {
		load := workload.NoLoad
		tab, err := exp.Profile(spec, load, profile.Coordinated)
		if err != nil {
			return fatal("profiling %s/%s: %v", spec.Name, load, err)
		}
		def, err := exp.MeasureDefault(spec, load)
		if err != nil {
			return fatal("default %s/%s: %v", spec.Name, load, err)
		}
		// Screen-off sessions doze: the controller re-decides every 30 s
		// instead of every 200 ms quantum (the workload is σ=0 constant,
		// so nothing changes between decisions), and the event core folds
		// each 30 s quiescent interval in closed form. The "-event" suffix
		// keeps the cell names of the committed baseline record.
		sc, err := runApp(spec, load, tab, def.GIPS, *seed, "controller-event", 30*time.Second)
		if err != nil {
			return fatal("%s/%s: %v", spec.Name, load, err)
		}
		logScenario(sc)
		rec.Scenarios = append(rec.Scenarios, sc)
	}
	if *fleetN > 0 {
		tables := make(map[string]*profile.Table, len(apps))
		targets := make(map[string]float64, len(apps))
		for _, spec := range apps {
			p := preps[spec.Name+"/BL"]
			tables[spec.Name], targets[spec.Name] = p.tab, p.target
		}
		sc, err := runFleet(*fleetN, apps, tables, targets, *seed, false)
		if err != nil {
			return fatal("fleet: %v", err)
		}
		logScenario(sc)
		rec.Scenarios = append(rec.Scenarios, sc)

		// The telemetry-overhead cell: the same slice under full
		// observation — cohort labels, concurrent rollup scrapes, a live
		// stream subscriber. Its gates hold the pipeline to its promise:
		// cycles/sec and allocs/cycle indistinguishable from the
		// unobserved slice.
		scT, err := runFleet(*fleetN, apps, tables, targets, *seed, true)
		if err != nil {
			return fatal("fleet-telemetry: %v", err)
		}
		logScenario(scT)
		rec.Scenarios = append(rec.Scenarios, scT)
	}
	if *genN > 0 {
		sc, err := runGenerated(*genN, *seed)
		if err != nil {
			return fatal("generated: %v", err)
		}
		logScenario(sc)
		rec.Scenarios = append(rec.Scenarios, sc)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fatal("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fatal("%v", err)
		}
		f.Close()
	}
	if *out != "" {
		if err := rec.WriteFile(*out); err != nil {
			return fatal("%v", err)
		}
		logf("wrote %s (%d scenarios)", *out, len(rec.Scenarios))
	}
	if *check != "" {
		base, err := benchrec.ReadFile(*check)
		if err != nil {
			return fatal("%v", err)
		}
		regs, err := benchrec.Compare(base, rec, *tol)
		if err != nil {
			return fatal("%v", err)
		}
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "aspeo-bench: REGRESSION %s\n", r)
			}
			return 1
		}
		logf("no regression beyond %.0f%% against %s", *tol*100, *check)
	}
	return 0
}

// latencyBounds are the Dist bucket upper bounds for per-cycle wall
// latency, in milliseconds: exponential from 5 µs to ~2 s (a cycle
// simulates 2 device seconds in well under a millisecond; the top bound
// leaves room for slow machines).
func latencyBounds() []float64 {
	var b []float64
	for v := 0.005; v < 2000; v *= 1.25 {
		b = append(b, v)
	}
	return b
}

// Noise control: one short seeded run is at the mercy of the
// scheduler, so every cell is re-run until minScenarioWall of total
// wall time or maxScenarioIters identical runs, and the record keeps
// the best (least-interfered) iteration. Same seed, same table —
// every iteration is the identical computation, so the max over
// iterations estimates the same quantity with less noise.
const (
	minScenarioWall  = 250 * time.Millisecond
	maxScenarioIters = 5
)

// runApp measures one controller cell end to end: the app's standard
// session under the given background load, seeded, on a pre-profiled
// table. Best-of-N over identical runs; the allocation count takes the
// minimum across iterations (allocations are a property of the code
// path, and the minimum strips incidental runtime noise).
func runApp(spec *workload.Spec, load workload.BGLoad, tab *profile.Table, target float64, seed int64, variant string, doze time.Duration) (benchrec.Scenario, error) {
	var sc benchrec.Scenario
	var total time.Duration
	for i := 0; i < maxScenarioIters && (i == 0 || total < minScenarioWall); i++ {
		one, err := runAppOnce(spec, load, tab, target, seed, variant, doze)
		if err != nil {
			return sc, err
		}
		total += time.Duration(one.WallSeconds * float64(time.Second))
		switch {
		case i == 0:
			sc = one
		case one.CyclesPerSec > sc.CyclesPerSec:
			if sc.AllocsPerCycle < one.AllocsPerCycle {
				one.AllocsPerCycle = sc.AllocsPerCycle
			}
			sc = one
		case one.AllocsPerCycle < sc.AllocsPerCycle:
			sc.AllocsPerCycle = one.AllocsPerCycle
		}
	}
	return sc, nil
}

func runAppOnce(spec *workload.Spec, load workload.BGLoad, tab *profile.Table, target float64, seed int64, variant string, doze time.Duration) (benchrec.Scenario, error) {
	var sc benchrec.Scenario
	sc.Name = spec.Name + "/" + load.String() + "/" + variant
	ph, err := sim.NewPhone(sim.Config{
		Foreground: spec, Load: load, Seed: seed,
		ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		return sc, err
	}
	eng := sim.NewEngine(ph)
	opts := core.DefaultOptions(tab, target)
	opts.Seed = seed
	if doze > 0 {
		opts.CycleT, opts.Quantum = doze, doze
	}
	dist := histogram.NewDist(latencyBounds())
	var lastCycle time.Time
	opts.OnCycle = func(core.CycleSnapshot) {
		now := time.Now()
		if !lastCycle.IsZero() {
			dist.Observe(float64(now.Sub(lastCycle).Microseconds()) / 1e3)
		}
		lastCycle = now
	}
	ctl, err := core.New(opts)
	if err != nil {
		return sc, err
	}
	if err := ctl.Install(eng); err != nil {
		return sc, err
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	wall0 := time.Now()
	st := eng.Run(spec.RunFor, false)
	wall := time.Since(wall0).Seconds()
	runtime.ReadMemStats(&m1)

	cycles := ctl.Snapshot().CyclesRun
	sc.SimSeconds = st.Duration.Seconds()
	sc.WallSeconds = wall
	sc.Cycles = cycles
	if wall > 0 {
		sc.CyclesPerSec = float64(cycles) / wall
		sc.SimPerWall = sc.SimSeconds / wall
	}
	if cycles > 0 {
		sc.AllocsPerCycle = float64(m1.Mallocs-m0.Mallocs) / float64(cycles)
	}
	sc.P95CycleMs = dist.Quantile(0.95)
	return sc, nil
}

// runFleet measures the fleet runtime: n controller sessions submitted
// through the manager's worker pool, each 60 simulated seconds on a
// stored profile. The measurement covers submission, scheduling,
// session construction and the runs themselves — the management
// plane's end-to-end throughput, not a single cell's. Best of two:
// concurrent schedules are where machine noise bites hardest.
func runFleet(n int, apps []*workload.Spec, tables map[string]*profile.Table,
	targets map[string]float64, seed int64, telemetry bool) (benchrec.Scenario, error) {

	sc, err := runFleetOnce(n, apps, tables, targets, seed, telemetry)
	if err != nil {
		return sc, err
	}
	again, err := runFleetOnce(n, apps, tables, targets, seed, telemetry)
	if err != nil {
		return sc, err
	}
	if again.CyclesPerSec > sc.CyclesPerSec {
		if sc.AllocsPerCycle < again.AllocsPerCycle {
			again.AllocsPerCycle = sc.AllocsPerCycle
		}
		sc = again
	} else if again.AllocsPerCycle < sc.AllocsPerCycle {
		sc.AllocsPerCycle = again.AllocsPerCycle
	}
	return sc, nil
}

func runFleetOnce(n int, apps []*workload.Spec, tables map[string]*profile.Table,
	targets map[string]float64, seed int64, telemetry bool) (benchrec.Scenario, error) {

	var sc benchrec.Scenario
	sc.Name = fmt.Sprintf("fleet-%d", n)
	if telemetry {
		sc.Name += "-telemetry"
	}
	dir, err := os.MkdirTemp("", "aspeo-bench-")
	if err != nil {
		return sc, err
	}
	defer os.RemoveAll(dir)
	paths := make(map[string]string, len(apps))
	for _, spec := range apps {
		path := filepath.Join(dir, spec.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			return sc, err
		}
		if err := tables[spec.Name].WriteJSON(f); err != nil {
			f.Close()
			return sc, err
		}
		if err := f.Close(); err != nil {
			return sc, err
		}
		paths[spec.Name] = path
	}

	m := fleet.NewManager(fleet.Options{})
	// Under telemetry the slice runs fully observed: every allocation
	// the scrapers and the subscriber provoke lands inside the same
	// malloc window as the sessions, so the allocs/cycle gate holds the
	// whole pipeline to account, not just the hot path.
	var (
		stopObs  chan struct{}
		obsDone  sync.WaitGroup
		cohorts  = []string{"game", "video", "browser", "reader"}
		unsub    func()
		streamCh <-chan pipeline.StreamBatch
	)
	if telemetry {
		streamCh, unsub = m.Telemetry().Subscribe(1024)
		defer unsub()
		stopObs = make(chan struct{})
		obsDone.Add(2)
		go func() { // concurrent scrape: rollup + Prometheus exposition
			defer obsDone.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopObs:
					return
				case <-tick.C:
					report.RollupMetrics(m.Registry(), m.Rollup())
					_ = m.Registry().WriteText(io.Discard)
				}
			}
		}()
		go func() { // live stream subscriber
			defer obsDone.Done()
			for {
				select {
				case <-stopObs:
					return
				case <-streamCh:
				}
			}
		}()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	wall0 := time.Now()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		app := apps[i%len(apps)]
		cfg := fleet.Config{
			App: app.Name, Controller: true,
			Profile: paths[app.Name], TargetGIPS: targets[app.Name],
			Seed: seed + int64(i), RunForS: 60,
		}
		if telemetry {
			cfg.Cohort = cohorts[i%len(cohorts)]
			if cfg.Cohort == "game" {
				cfg.StormPeriodS, cfg.StormBurstS = 20, 5
			}
		}
		v, err := m.Submit(cfg)
		if err != nil {
			return sc, err
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cycles := 0
	for _, id := range ids {
		v, err := m.WaitSession(ctx, id)
		if err != nil {
			return sc, err
		}
		if v.State != fleet.StateCompleted {
			return sc, fmt.Errorf("session %s landed %s: %s", id, v.State, v.Error)
		}
		sc.SimSeconds += v.Summary.DurationS
		if v.Summary.Controller != nil {
			cycles += v.Summary.Controller.Cycles
		}
	}
	wall := time.Since(wall0).Seconds()
	if telemetry {
		close(stopObs)
		obsDone.Wait()
	}
	runtime.ReadMemStats(&m1)
	if err := m.Drain(ctx); err != nil {
		return sc, err
	}

	sc.WallSeconds = wall
	sc.Cycles = cycles
	if wall > 0 {
		sc.CyclesPerSec = float64(cycles) / wall
		sc.SimPerWall = sc.SimSeconds / wall
	}
	if cycles > 0 {
		sc.AllocsPerCycle = float64(m1.Mallocs-m0.Mallocs) / float64(cycles)
	}
	return sc, nil
}

// runGenerated measures the scenario pipeline end to end: a seeded
// n-session population — chained app-switchers with an ad storm plus
// perturbed single-app readers over a bursty arrival process — is
// compiled by internal/scenario and submitted through the fleet
// manager as governor-mode sessions (no profiling cost; the generated
// chain workloads have no stored tables anyway). The measurement
// covers compilation, submission and the runs; with zero control
// cycles the cell gates only on the sim/wall geomean.
func runGenerated(n int, seed int64) (benchrec.Scenario, error) {
	var sc benchrec.Scenario
	sc.Name = fmt.Sprintf("generated-%d", n)
	spec := &scenario.Spec{
		Name: "bench-pop", Seed: seed, Sessions: n, HorizonS: 600,
		Arrival: scenario.Arrival{
			Process: scenario.ProcessBursty, BurstFactor: 3,
			MeanBurstS: 30, MeanCalmS: 90,
		},
		LoadCurve: []scenario.CurveTerm{{PeriodS: 600, Amplitude: 0.3, Phase: 0.25}},
		Cohorts: []scenario.Cohort{
			{
				Name: "switchers", Weight: 0.6,
				Apps:    []string{"spotify", "ebook", "angrybirds"},
				Chain:   &scenario.Chain{Length: 3, DwellS: 10, DwellJitter: 0.3},
				Loads:   map[string]float64{"BL": 0.7, "HL": 0.3},
				RunForS: 30,
				AdStorm: &scenario.AdStorm{PeriodS: 20, BurstS: 2, GIPS: 0.3},
			},
			{
				Name: "readers", Weight: 0.4,
				Apps:    []string{"ebook"},
				Perturb: &scenario.Perturb{DemandSigma: 0.25, DurationSigma: 0.2},
				RunForS: 30,
			},
		},
	}
	g, err := spec.Compile()
	if err != nil {
		return sc, err
	}

	m := fleet.NewManager(fleet.Options{})
	runtime.GC()
	wall0 := time.Now()
	views, err := m.SubmitScenario(g)
	if err != nil {
		return sc, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for _, v := range views {
		v, err := m.WaitSession(ctx, v.ID)
		if err != nil {
			return sc, err
		}
		if v.State != fleet.StateCompleted {
			return sc, fmt.Errorf("session %s landed %s: %s", v.ID, v.State, v.Error)
		}
		sc.SimSeconds += v.Summary.DurationS
	}
	wall := time.Since(wall0).Seconds()
	if err := m.Drain(ctx); err != nil {
		return sc, err
	}

	sc.WallSeconds = wall
	if wall > 0 {
		sc.SimPerWall = sc.SimSeconds / wall
	}
	return sc, nil
}

func logScenario(sc benchrec.Scenario) {
	logf("%-24s %8.0f cycles/s  %9.0f sim_s/wall_s  %7.2f allocs/cycle  p95 %.3f ms",
		sc.Name, sc.CyclesPerSec, sc.SimPerWall, sc.AllocsPerCycle, sc.P95CycleMs)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspeo-bench: "+format+"\n", args...)
}

func fatal(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "aspeo-bench: "+format+"\n", args...)
	return 1
}
