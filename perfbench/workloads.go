package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/profile"
	"aspeo/internal/workload"
)

// workloadRunner is one benchmark workload: inputs built from the seed
// by setup (timed as setup_s), then repeated passes over the same
// inputs. Every pass of one run simulates exactly the same sessions, so
// their records must agree bit for bit.
type workloadRunner interface {
	// setup builds the workload's inputs from the seed; layer figures
	// measured on the way (profiling, scenario compilation) land in lay.
	setup(seed int64, env env, lay *setupLayers) error
	// pass runs every session once, instrumented as in says.
	pass(in instrument) (passResult, error)
	// paperPreps returns the BL controller inputs setup built for the
	// six evaluated apps, for the paper check to reuse (nil: none).
	paperPreps() map[string]prep
}

// env is what a workload needs from the host.
type env struct {
	workers int    // fleet worker count (nproc)
	workDir string // scratch directory for profile-table files
	// stall plants a fixed slowdown in every fleet controller session
	// (the planted-regression test); see options.stall.
	stall time.Duration
}

// setupLayers are the per-layer figures setup measures.
type setupLayers struct {
	profileMs []float64 // wall time per profile table built
	compileMs float64   // scenario compilation (fleet-pop)
}

// passResult is one pass over a workload's sessions.
type passResult struct {
	records   []record  // in session order
	sessionMs []float64 // host time per session
	simS      float64
	wall      time.Duration
	failed    int // sessions that did not land completed (fleet)
	fleet     *fleetBatch
}

var workloadNames = []string{"idle-hour", "fleet-pop"}

func newWorkload(name string) (workloadRunner, error) {
	switch name {
	case "idle-hour":
		return &idleHour{}, nil
	case "fleet-pop":
		return &fleetPop{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// derive mixes the benchmark seed with a label into a session seed, so
// every input is a pure function of --seed.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// prep is one app×load cell's controller inputs: a Quick-fidelity
// profile table and the default governors' measured performance, the
// paper's target (§III-A).
type prep struct {
	table  *profile.Table
	target float64
}

// prepare profiles the cell and measures its default-governor target,
// both seeded from seed, exactly as the Table III campaign derives its
// controller inputs.
func prepare(app *workload.Spec, load workload.BGLoad, seed int64, lay *setupLayers) (prep, error) {
	exp := experiment.Quick()
	exp.Seeds = []int64{seed}
	exp.ProfileSeeds = []int64{derive(seed, "profile")}
	t0 := time.Now()
	tab, err := exp.Profile(app, load, profile.Coordinated)
	if err != nil {
		return prep{}, fmt.Errorf("profiling %s/%s: %w", app.Name, load, err)
	}
	if lay != nil {
		lay.profileMs = append(lay.profileMs, ms(time.Since(t0)))
	}
	def, err := exp.MeasureDefault(app, load)
	if err != nil {
		return prep{}, fmt.Errorf("default %s/%s: %w", app.Name, load, err)
	}
	return prep{table: tab, target: def.GIPS}, nil
}

// cellSeed is the seed of one app×load cell of a run.
func cellSeed(seed int64, app string, load workload.BGLoad) int64 {
	return derive(seed, app+"/"+load.String())
}

// controllerCell is an app under the controller on its cell's profile
// and target.
func controllerCell(app *workload.Spec, load workload.BGLoad, seed int64, p prep) cell {
	return cell{
		name: app.Name + "/" + load.String() + "/controller",
		app:  app, load: load, seed: seed,
		controller: true, table: p.table, target: p.target,
	}
}

// runCells is a pass over direct cells, one after another on the
// calling goroutine (closed loop, one client).
func runCells(cells []cell, in instrument) (passResult, error) {
	res := passResult{
		records:   make([]record, 0, len(cells)),
		sessionMs: make([]float64, 0, len(cells)),
	}
	t0 := time.Now()
	for i := range cells {
		rec, took, err := cells[i].run(in)
		if err != nil {
			return res, err
		}
		res.records = append(res.records, rec)
		res.sessionMs = append(res.sessionMs, ms(took))
		res.simS += rec.DurationS
	}
	res.wall = time.Since(t0)
	return res, nil
}

// idleHour is hour-scale screen-off battery sessions: SpotifyIdle and
// EBookIdle with no background load under a controller dozing at a 30 s
// cycle, over idleSeeds seeds each: 200 sessions a pass, so a
// session-time p95 has ten sessions beyond it. The event core's
// closed-form spans do nearly all the work.
type idleHour struct{ cells []cell }

const (
	idleSeeds = 100
	idleDoze  = 30 * time.Second
)

func (w *idleHour) setup(seed int64, _ env, lay *setupLayers) error {
	w.cells = nil
	for _, app := range []*workload.Spec{workload.SpotifyIdle(), workload.EBookIdle()} {
		load := workload.NoLoad
		p, err := prepare(app, load, cellSeed(seed, app.Name, load), lay)
		if err != nil {
			return err
		}
		for i := 0; i < idleSeeds; i++ {
			c := controllerCell(app, load, derive(seed, fmt.Sprintf("%s/%d", app.Name, i)), p)
			c.name = fmt.Sprintf("%s/%d", c.name, i)
			c.doze = idleDoze
			w.cells = append(w.cells, c)
		}
	}
	return nil
}

func (w *idleHour) pass(in instrument) (passResult, error) { return runCells(w.cells, in) }

func (w *idleHour) paperPreps() map[string]prep { return nil }
