package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/governor"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// cell is one session the benchmark runs directly (outside the fleet):
// an app on a simulated phone under either the stock governors or the
// controller. Its wiring is experiment.NewSession's for fault-free
// sessions, built through experiment.NewHarness so the benchmark can
// hand the wiring an instrumented runner. fleet-pop checks the two agree: every fleet session's summary
// must equal the direct run of the same config.
type cell struct {
	name    string
	app     *workload.Spec
	load    workload.BGLoad
	extraBG []*workload.Spec
	seed    int64

	controller bool
	governor   string         // governor mode: the cpufreq policy written
	table      *profile.Table // controller mode
	target     float64        // controller mode
	// doze, when positive, is the controller's cycle and quantum both:
	// the screen-off setting that re-decides every doze interval.
	doze time.Duration
	// runFor caps the session; 0 runs the app's standard session.
	runFor time.Duration
}

// record is every simulated statistic of one session: what the
// correctness checks and the digest compare. Its fields are the ones a
// fleet RunSummary carries, so a fleet session and a direct run of the
// same config compare field for field.
type record struct {
	Cell         string
	Seed         int64
	DurationS    float64
	EnergyJ      float64
	AvgPowerW    float64
	PeakPowerW   float64
	GIPS         float64
	FGCompleted  bool
	DroppedInstr float64
	FreqChanges  int
	BWChanges    int

	Cycles         int
	MeanAbsErrGIPS float64
	BaseEstGIPS    float64
	CacheHits      int
	Rejected       int
}

func newRecord(name string, seed int64, st sim.Stats, ctl *core.Controller) record {
	r := record{
		Cell: name, Seed: seed,
		DurationS: st.Duration.Seconds(), EnergyJ: st.EnergyJ,
		AvgPowerW: st.AvgPowerW, PeakPowerW: st.PeakPowerW, GIPS: st.GIPS,
		FGCompleted: st.FGCompleted, DroppedInstr: st.DroppedInstr,
		FreqChanges: st.FreqChanges, BWChanges: st.BWChanges,
	}
	if ctl != nil {
		r.Cycles = ctl.Cycles()
		r.MeanAbsErrGIPS = ctl.MeanAbsError()
		r.BaseEstGIPS = ctl.BaseSpeedEstimate()
		r.CacheHits = ctl.AllocCacheHits()
		r.Rejected = ctl.Health().RejectedSamples
	}
	return r
}

func summaryRecord(name string, s *report.RunSummary) record {
	r := record{
		Cell: name, Seed: s.Seed,
		DurationS: s.DurationS, EnergyJ: s.EnergyJ,
		AvgPowerW: s.AvgPowerW, PeakPowerW: s.PeakPowerW, GIPS: s.GIPS,
		FGCompleted: s.FGCompleted, DroppedInstr: s.DroppedInstr,
		FreqChanges: s.FreqChanges, BWChanges: s.BWChanges,
	}
	if c := s.Controller; c != nil {
		r.Cycles = c.Cycles
		r.MeanAbsErrGIPS = c.MeanAbsErrGIPS
		r.BaseEstGIPS = c.BaseEstimateGIPS
		r.CacheHits = c.AllocCacheHits
		r.Rejected = c.Health.RejectedSamples
	}
	return r
}

// digestOf hashes records exactly: %v prints each float in its shortest
// round-trip form, so two digests agree only if every statistic is
// bit-identical.
func digestOf(rs []record) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// run builds and runs the cell with the given instrumentation and
// returns its record and the session's host time.
func (c *cell) run(in instrument) (record, time.Duration, error) {
	t0 := time.Now()
	var ctl *core.Controller
	var snaps []core.CycleSnapshot
	var cycle time.Duration
	install := func(r platform.Runner) error {
		r = in.runner(r)
		if c.controller {
			opts := core.DefaultOptions(c.table, c.target)
			opts.Seed = c.seed
			if c.doze > 0 {
				opts.CycleT, opts.Quantum = c.doze, c.doze
			}
			cycle = opts.CycleT
			if in.led != nil {
				opts.OnCycle = func(s core.CycleSnapshot) { snaps = append(snaps, s) }
			}
			var err error
			if ctl, err = core.New(opts); err != nil {
				return err
			}
			return ctl.Install(r)
		}
		// A governor-mode session names its cpufreq policy, as
		// experiment.NewSession wires it.
		if err := r.Device().WriteFile(sysfs.CPUScalingGovernor, c.governor); err != nil {
			return fmt.Errorf("setting governor: %w", err)
		}
		if err := governor.Defaults(r); err != nil {
			return err
		}
		return r.Register(perftool.MustNew(time.Second, c.seed))
	}
	h, err := experiment.NewHarness(experiment.HarnessConfig{
		Foreground: c.app, Load: c.load, ExtraBackground: c.extraBG,
		Seed: c.seed, Install: install,
	})
	if err != nil {
		return record{}, 0, fmt.Errorf("%s: %w", c.name, err)
	}
	t1 := time.Now()
	var st sim.Stats
	if c.runFor > 0 {
		st = h.Engine.Run(c.runFor, c.app.DeadlineCritical)
	} else {
		st = h.RunSession()
	}
	t2 := time.Now()
	rec := newRecord(c.name, c.seed, st, ctl)
	total := time.Since(t0)
	if l := in.led; l != nil {
		l.sessions++
		l.sessionNs += int64(total)
		l.runNs += int64(t2.Sub(t1))
		l.constructMs = append(l.constructMs, ms(t1.Sub(t0)))
		l.simS += st.Duration.Seconds()
		if ctl != nil {
			l.replays = append(l.replays, cycleReplay{table: c.table, cycle: cycle, snaps: snaps})
		}
	}
	return rec, total, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
