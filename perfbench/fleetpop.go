package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/fault"
	"aspeo/internal/fleet"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/report"
	"aspeo/internal/scenario"
	"aspeo/internal/stats"
	"aspeo/internal/workload"
)

// fleetPop is a seeded population submitted to fleet.Manager as one
// closed batch: controller cohorts of single-app sessions on stored
// profile tables (an ad storm on one of them) mixed with a governor-mode
// app-switcher chain cohort with perturbed demand. While the batch runs,
// one client goroutine scrapes the rollup and the Prometheus text every
// scrapeEvery completed sessions and drains the telemetry stream.
type fleetPop struct {
	workers int
	stall   time.Duration
	configs []fleet.Config
	// cells are the same sessions as direct cells: the traced run's
	// attribution and the fleet-vs-direct correctness check.
	cells []cell
	// specs are the same sessions as experiment.SessionSpecs: the
	// direct NewSession+Run baseline of fleet.overhead_ms_per_session.
	specs []experiment.SessionSpec
	preps map[string]prep // BL inputs of the evaluated apps
}

const (
	fleetSessions    = 256
	fleetCtlSessions = 24 // per controller cohort; the rest are switchers
	fleetRunForS     = 40
	// scrapeEvery is the client's scrape cadence in completed sessions.
	// It is the 50 ms period the fleet-256-telemetry cell of
	// cmd/aspeo-bench scrapes at, expressed in completions at this
	// batch's measured rate: on a 2-vCPU host (Workers = 2) a batch of
	// fleetSessions completes in about 0.8 s, some 320 sessions a
	// second, so 50 ms is 16 completions and a batch takes 16 scrapes.
	// Counted in completions, the scrape load per session is the same
	// on every host and every run, so the allocation metrics measure
	// the code, not the host's speed; obs.scrape_share reports the
	// wall-time share the scrapes take.
	scrapeEvery = 16
)

// fleetCohorts is the population: six controller cohorts of single-app
// sessions (AngryBirds under an ad storm) and governor-mode switchers.
// Each cohort compiles as its own scenario with a fixed session count,
// so every seed draws the same mix: per-session cost differs five-fold
// between cohorts, and a mix that moved with the seed would move the
// session-time percentiles with it.
func fleetCohorts() []scenario.Cohort {
	var cs []scenario.Cohort
	for _, app := range workload.Evaluated() {
		c := scenario.Cohort{
			Name: "ctl-" + app.Name, Weight: 1, Apps: []string{app.Name},
			Controller: true, RunForS: fleetRunForS,
		}
		if app.Name == workload.NameAngryBirds {
			c.AdStorm = &scenario.AdStorm{PeriodS: 20, BurstS: 3, GIPS: 0.3}
		}
		cs = append(cs, c)
	}
	return append(cs, scenario.Cohort{
		Name: "switchers", Weight: 1,
		Apps:    []string{workload.NameSpotify, workload.NameEBook, workload.NameAngryBirds, workload.NameWeChat},
		Chain:   &scenario.Chain{Length: 3, DwellS: 10, DwellJitter: 0.3},
		Loads:   map[string]float64{"BL": 0.7, "HL": 0.3},
		Perturb: &scenario.Perturb{DemandSigma: 0.25, DurationSigma: 0.2},
		RunForS: fleetRunForS,
	})
}

// compilePopulation compiles every cohort's scenario from the seed —
// fleetCtlSessions sessions per controller cohort, the rest switchers —
// and merges the sessions in arrival order.
func compilePopulation(seed int64) ([]scenario.Session, error) {
	var all []scenario.Session
	for _, c := range fleetCohorts() {
		n := fleetCtlSessions
		if !c.Controller {
			n = fleetSessions - (len(workload.Evaluated()) * fleetCtlSessions)
		}
		spec := &scenario.Spec{
			Name: "perfbench-" + c.Name, Seed: derive(seed, c.Name), Sessions: n, HorizonS: 600,
			Arrival: scenario.Arrival{
				Process: scenario.ProcessBursty, BurstFactor: 3,
				MeanBurstS: 30, MeanCalmS: 90,
			},
			LoadCurve: []scenario.CurveTerm{{PeriodS: 600, Amplitude: 0.3, Phase: 0.25}},
			Cohorts:   []scenario.Cohort{c},
		}
		g, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		all = append(all, g.Sessions...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ArrivalS < all[j].ArrivalS })
	return all, nil
}

func (w *fleetPop) setup(seed int64, e env, lay *setupLayers) error {
	w.workers, w.stall = e.workers, e.stall
	t0 := time.Now()
	sessions, err := compilePopulation(seed)
	if err != nil {
		return err
	}
	lay.compileMs = ms(time.Since(t0))

	// Stored profile tables for the controller cohorts, written where
	// fleet sessions read them.
	w.preps = map[string]prep{}
	paths := map[string]string{}
	for _, app := range workload.Evaluated() {
		p, err := prepare(app, workload.BaselineLoad, cellSeed(seed, app.Name, workload.BaselineLoad), lay)
		if err != nil {
			return err
		}
		path := filepath.Join(e.workDir, app.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := p.table.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		w.preps[app.Name], paths[app.Name] = p, path
	}

	w.configs, w.cells, w.specs = nil, nil, nil
	for i := range sessions {
		cfg := fleet.ConfigFromSession(&sessions[i])
		c := cell{
			name:    fmt.Sprintf("%s/%d", cfg.Cohort, i),
			app:     cfg.Workload,
			extraBG: cfg.ExtraBackground,
			seed:    cfg.Seed,
			runFor:  time.Duration(cfg.RunForS * float64(time.Second)),
		}
		if c.load, err = workload.ParseBGLoad(cfg.Load); err != nil {
			return err
		}
		if cfg.Controller {
			p, ok := w.preps[cfg.App]
			if !ok {
				return fmt.Errorf("no stored profile for controller app %q", cfg.App)
			}
			cfg.Profile = paths[cfg.App]
			if cfg.TargetGIPS == 0 {
				cfg.TargetGIPS = p.target
			}
			c.controller, c.table, c.target = true, p.table, cfg.TargetGIPS
		} else {
			if cfg.Governor == "" {
				cfg.Governor = "interactive"
			}
			c.governor = cfg.Governor
		}
		w.configs = append(w.configs, cfg)
		w.cells = append(w.cells, c)
		w.specs = append(w.specs, experiment.SessionSpec{
			App: cfg.App, AppSpec: cfg.Workload, ExtraBackground: cfg.ExtraBackground,
			Load: cfg.Load, Governor: cfg.Governor, Controller: cfg.Controller,
			Profile: cfg.Profile, TargetGIPS: cfg.TargetGIPS, Seed: cfg.Seed,
			RunFor: c.runFor,
		})
	}
	return nil
}

func (w *fleetPop) paperPreps() map[string]prep { return w.preps }

// fleetBatch is what one batch measured of the fleet's own layers.
type fleetBatch struct {
	serviceMs   []float64 // StartedAt → FinishedAt per session
	queueWaitMs []float64 // SubmittedAt → StartedAt per session
	submitUs    []float64 // one Submit call
	scrapeMs    []float64 // one Rollup + Prometheus text render
	busyShare   float64   // summed service time over workers × wall
	restarts    int
	overflows   uint64
	dropped     uint64
	streamRecs  int // records received on the telemetry stream
}

// pass submits the population as one closed batch and waits for every
// session. The fleet builds its sessions itself, out of the actor
// wrapper's reach, so a fleet pass is never instrumented.
func (w *fleetPop) pass(in instrument) (passResult, error) {
	if in.active() {
		return passResult{}, fmt.Errorf("fleet-pop: fleet sessions cannot be instrumented")
	}
	var res passResult
	fb := &fleetBatch{}
	res.fleet = fb
	opts := fleet.Options{Workers: w.workers}
	if w.stall > 0 {
		opts.Chaos = fault.ProcessPlan{StallAtCycle: 1, StallFor: w.stall}
	}
	m := fleet.NewManager(opts)
	// The stream buffer holds everything one fleet batch publishes: a
	// stream batch per scrape plus the last.
	stream, unsub := m.Telemetry().Subscribe(fleetSessions/scrapeEvery + 1)
	// Sized to the number of pokes, so the batch never waits on its client.
	pokes := make(chan struct{}, fleetSessions/scrapeEvery+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		scrape(m, stream, pokes, fb)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// stop ends the client and drains the fleet; every path calls it once.
	stop := func() error {
		close(pokes)
		<-done
		unsub()
		return m.Drain(ctx)
	}

	t0 := time.Now()
	ids := make([]string, 0, len(w.configs))
	for _, cfg := range w.configs {
		ts := time.Now()
		v, err := m.Submit(cfg)
		fb.submitUs = append(fb.submitUs, float64(time.Since(ts))/1e3)
		if err != nil {
			_ = stop() // the submit error is the one to report
			return res, err
		}
		ids = append(ids, v.ID)
	}
	var busy time.Duration
	for i, id := range ids {
		v, err := m.WaitSession(ctx, id)
		if err != nil {
			_ = stop() // the wait error is the one to report
			return res, err
		}
		if (i+1)%scrapeEvery == 0 {
			pokes <- struct{}{}
		}
		if v.State != fleet.StateCompleted || v.Summary == nil || v.StartedAt == nil || v.FinishedAt == nil {
			res.failed++
			res.records = append(res.records, record{Cell: w.cells[i].name + "/" + string(v.State)})
			continue
		}
		svc := v.FinishedAt.Sub(*v.StartedAt)
		busy += svc
		fb.serviceMs = append(fb.serviceMs, ms(svc))
		fb.queueWaitMs = append(fb.queueWaitMs, ms(v.StartedAt.Sub(v.SubmittedAt)))
		res.sessionMs = append(res.sessionMs, ms(svc))
		res.records = append(res.records, summaryRecord(w.cells[i].name, v.Summary))
		res.simS += v.Summary.DurationS
	}
	res.wall = time.Since(t0)
	if err := stop(); err != nil {
		return res, err
	}

	r := m.Rollup()
	fb.busyShare = busy.Seconds() / (float64(w.workers) * res.wall.Seconds())
	fb.restarts = r.Restarts
	fb.overflows = m.Telemetry().Overflows()
	fb.dropped = m.Telemetry().Dropped()
	// The stream must deliver exactly the records the rollup counted:
	// every cycle, arrival and final.
	if fb.streamRecs != r.CyclesTotal+2*len(ids) {
		res.failed++
	}
	return res, nil
}

// scrape is the batch's one observing client: on every poke it renders
// the rollup onto the registry and the registry as Prometheus text, and
// drains whatever the telemetry stream delivered. When the pokes end it
// takes one last rollup, which flushes every ring onto the stream, and
// drains what that delivered.
func scrape(m *fleet.Manager, stream <-chan pipeline.StreamBatch, pokes <-chan struct{}, fb *fleetBatch) {
	drain := func() {
		for {
			select {
			case b := <-stream:
				fb.streamRecs += len(b.Arrivals) + len(b.Cycles) + len(b.Finals)
			default:
				return
			}
		}
	}
	for range pokes {
		t0 := time.Now()
		report.RollupMetrics(m.Registry(), m.Rollup())
		_ = m.Registry().WriteText(io.Discard) // io.Discard never fails
		fb.scrapeMs = append(fb.scrapeMs, ms(time.Since(t0)))
		drain()
	}
	m.Telemetry().Rollup()
	drain()
}

// directPass runs the same sessions outside the fleet, one after another
// on the calling goroutine, as direct cells.
func (w *fleetPop) directPass(in instrument) (passResult, error) { return runCells(w.cells, in) }

// sessionPass runs the same sessions through experiment.NewSession and
// Session.Run — the session path a fleet worker takes, minus the fleet.
func (w *fleetPop) sessionPass() (passResult, error) {
	res := passResult{sessionMs: make([]float64, 0, len(w.specs))}
	t0 := time.Now()
	for i, spec := range w.specs {
		ts := time.Now()
		s, err := experiment.NewSession(spec)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.cells[i].name, err)
		}
		st := s.Run(nil)
		sum := report.NewRunSummary(s, st)
		res.sessionMs = append(res.sessionMs, ms(time.Since(ts)))
		res.records = append(res.records, summaryRecord(w.cells[i].name, &sum))
		res.simS += sum.DurationS
	}
	res.wall = time.Since(t0)
	return res, nil
}

// setFleet fills the fleet, obs and pipeline figures from the fleet
// batches and the NewSession+Run baseline; on the other workloads those
// layers never run and read 0.
func setFleet(res *result, passes, sessionPasses []passResult, isFleet bool) {
	var svc, wait, sub, scr, base []float64
	var busy []float64
	var restarts, recs int
	var overflows, dropped uint64
	var wallMs float64
	for _, p := range passes {
		if p.fleet != nil {
			wallMs += ms(p.wall)
		}
	}
	batches := fleetBatches(passes)
	for _, b := range batches {
		svc = append(svc, b.serviceMs...)
		wait = append(wait, b.queueWaitMs...)
		sub = append(sub, b.submitUs...)
		scr = append(scr, b.scrapeMs...)
		busy = append(busy, b.busyShare)
		restarts += b.restarts
		overflows += b.overflows
		dropped += b.dropped
		recs += b.streamRecs
	}
	for _, p := range sessionPasses {
		base = append(base, p.sessionMs...)
	}
	q := func(xs []float64, p float64) float64 {
		v, ok := quantile(xs, p)
		if !ok && isFleet {
			res.notes = append(res.notes, fmt.Sprintf("fewer than %d samples beyond p%.0f of %d", minBeyond, 100*p, len(xs)))
		}
		return v
	}
	n := float64(len(batches))
	res.set("fleet.service_ms_p50", q(svc, 0.50), "ms")
	res.set("fleet.service_ms_p95", q(svc, 0.95), "ms")
	res.set("fleet.queue_wait_ms_p95", q(wait, 0.95), "ms")
	res.set("fleet.submit_us_p95", q(sub, 0.95), "us")
	res.set("fleet.worker_busy_share", median(busy), "ratio")
	res.set("fleet.restarts", ratio(float64(restarts), n), "count")
	res.set("fleet.overhead_ms_per_session", stats.Mean(svc)-stats.Mean(base), "ms")
	res.set("obs.scrape_ms_p50", q(scr, 0.50), "ms")
	res.set("obs.scrape_ms_p95", q(scr, 0.95), "ms")
	res.set("obs.scrape_share", ratio(stats.Mean(scr)*float64(len(scr)), wallMs), "ratio")
	res.set("pipeline.overflows", ratio(float64(overflows), n), "count")
	res.set("pipeline.dropped", ratio(float64(dropped), n), "count")
	res.set("pipeline.stream_records", ratio(float64(recs), n), "count")
	if isFleet {
		res.notes = append(res.notes, fmt.Sprintf("fleet samples: %d service/queue-wait, %d submits, %d scrapes, %d NewSession+Run baseline sessions",
			len(svc), len(sub), len(scr), len(base)))
	}
}
