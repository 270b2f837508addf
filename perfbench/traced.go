package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/kalman"
	"aspeo/internal/stats"
)

// measureTraced is the traced run. Half of the wall budget repeats the
// workload untraced, half traced through the timing layer; the traced
// passes give the per-layer figures and the ratio of the two halves'
// best pass times is the tracing overhead. Every pass, traced or not,
// must reproduce the reference records exactly.
//
// fleet-pop builds its sessions inside fleet.Manager, out of the actor
// wrapper's reach, so its budget is split four ways: fleet batches (the
// fleet, obs and pipeline layers), experiment.NewSession+Run of the same
// configs (the baseline of the fleet's overhead), and the same sessions
// as direct cells, untraced and traced (the attribution). Matching the
// reference means every direct run reproduces its fleet session.
func measureTraced(o options, w workloadRunner, lay *setupLayers, ref passResult, res *result) error {
	fp, isFleet := w.(*fleetPop)
	phases := 2
	if isFleet {
		phases = 4
	}
	budget := o.seconds / time.Duration(phases)
	// repeat runs pass until the phase budget is spent (at least once),
	// and counts the GC cycles and pause time the phase saw.
	type gcFigures struct {
		cycles  uint32
		pauseNs uint64
	}
	repeat := func(pass func() (passResult, error)) ([]passResult, gcFigures, error) {
		var out []passResult
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for len(out) == 0 || time.Since(start) < budget {
			p, err := pass()
			if err != nil {
				return nil, gcFigures{}, err
			}
			res.check(ref, p)
			out = append(out, p)
		}
		runtime.ReadMemStats(&m1)
		return out, gcFigures{m1.NumGC - m0.NumGC, m1.PauseTotalNs - m0.PauseTotalNs}, nil
	}

	// The runtime figures come from the untraced stretch that stresses
	// the runtime most: the fleet batches on fleet-pop, the untraced
	// passes elsewhere.
	var batches, sessionPasses []passResult
	var gc gcFigures
	var err error
	direct := w.pass
	if isFleet {
		direct = fp.directPass
		if batches, gc, err = repeat(func() (passResult, error) { return fp.pass(instrument{}) }); err != nil {
			return err
		}
		if sessionPasses, _, err = repeat(fp.sessionPass); err != nil {
			return err
		}
	}
	plain, plainGC, err := repeat(func() (passResult, error) { return direct(instrument{}) })
	if err != nil {
		return err
	}
	if !isFleet {
		batches, gc = plain, plainGC
	}
	led := newLedger()
	traced, _, err := repeat(func() (passResult, error) { return direct(instrument{led: led}) })
	if err != nil {
		return err
	}

	// Traced and untraced runs must simulate identically.
	for _, p := range traced {
		if got := digestOf(p.records); got != res.digest {
			return fmt.Errorf("traced digest %s differs from untraced %s", got, res.digest)
		}
	}

	n := float64(len(traced))
	tickNs, ticks := led.tickNs()
	selfNs := float64(led.runNs - tickNs)
	session := float64(led.sessionNs)
	cpu, dev, perf, ctl := led.actor("cpufreq"), led.actor("devfreq"), led.actor("perf"), led.actor("aspeo-controller")

	res.set("sim.self_ns_per_sim_s", selfNs/led.simS, "ns/s")
	res.set("sim.self_share", selfNs/session, "ratio")
	res.set("sim.events", float64(ticks)/n, "count")
	res.set("sim.ns_per_event", ratio(selfNs, float64(ticks)), "ns")
	res.set("session.residual_share", float64(led.sessionNs-led.runNs)/session, "ratio")
	res.set("governor.cpufreq.ns_per_tick", ratio(float64(cpu.ns), float64(cpu.ticks)), "ns")
	res.set("governor.devfreq.ns_per_tick", ratio(float64(dev.ns), float64(dev.ticks)), "ns")
	res.set("governor.ticks", float64(cpu.ticks+dev.ticks)/n, "count")
	res.set("governor.share", float64(cpu.ns+dev.ns)/session, "ratio")
	res.set("perftool.ns_per_tick", ratio(float64(perf.ns), float64(perf.ticks)), "ns")
	res.set("perftool.ticks", float64(perf.ticks)/n, "count")
	res.set("core.ns_per_tick", ratio(float64(ctl.ns), float64(ctl.ticks)), "ns")
	res.set("core.share", float64(ctl.ns)/session, "ratio")
	res.set("sysfs.writes", float64(led.sysfsWrites)/n, "count")
	res.set("sysfs.ns_per_write", ratio(float64(led.sysfsNs), float64(led.sysfsWrites)), "ns")
	res.set("profile.ms_per_table", stats.Mean(lay.profileMs), "ms")
	res.set("experiment.construct_ms_p50", median(led.constructMs), "ms")
	res.set("scenario.compile_ms", lay.compileMs, "ms")
	if err := setCore(res, led, n); err != nil {
		return err
	}
	setFleet(res, batches, sessionPasses, isFleet)

	nb := float64(len(batches))
	res.set("runtime.gc_cycles", float64(gc.cycles)/nb, "count")
	res.set("runtime.gc_pause_ms", float64(gc.pauseNs)/1e6/nb, "ms")

	res.set("trace.overhead_share", bestWall(traced)/bestWall(plain)-1, "ratio")
	res.notes = append(res.notes, fmt.Sprintf(
		"traced: %d passes (%d sessions) traced, %d untraced; %d fleet batches; residual %.1f%% of session time outside Engine.Run",
		len(traced), led.sessions, len(plain), len(fleetBatches(batches)), 100*float64(led.sessionNs-led.runNs)/session))
	return nil
}

// bestWall is the fastest pass's wall time: like the end-to-end run's
// best session times, it reads the host's fast state.
func bestWall(ps []passResult) float64 {
	best := math.Inf(1)
	for _, p := range ps {
		best = math.Min(best, p.wall.Seconds())
	}
	return best
}

// fleetBatches lists the fleet batches among passes.
func fleetBatches(ps []passResult) []*fleetBatch {
	var out []*fleetBatch
	for _, p := range ps {
		if p.fleet != nil {
			out = append(out, p.fleet)
		}
	}
	return out
}

// setCore fills the controller's figures: counts from the per-cycle
// snapshots, and the optimizer and Kalman stages timed by replaying
// every recorded cycle's inputs through core.Frontier.Optimize and
// kalman.Filter.Update. The replay reaches the controller's stages only
// through core's public functions, so it differs from them in two
// known ways: the frontier is built on the whole profile table, where
// the controller solves on the table pruned of epsilon-dominated
// entries, and the filter's noise constants and the target grid are
// copied from core.New and Controller.optimize (controller.go). Each
// solve uses the session's own control cycle and the target quantized
// as the controller quantizes it. A solve the replay cannot run fails
// the run.
func setCore(res *result, led *ledger, passes float64) error {
	var cycles, hits, rejected int
	var optNs, kfNs, calls, kfCalls int64
	for _, rp := range led.replays {
		if len(rp.snaps) == 0 {
			continue
		}
		last := rp.snaps[len(rp.snaps)-1]
		cycles += last.CyclesRun
		hits += last.AllocCacheHits
		rejected += last.Health.RejectedSamples

		f, err := core.NewFrontier(rp.table.SortedBySpeedup())
		if err != nil {
			return fmt.Errorf("optimizer replay: %w", err)
		}
		b0 := rp.table.BaseGIPS
		kf := kalman.MustNew(math.Pow(0.02*b0, 2), math.Pow(0.05*b0, 2))
		kf.Init(b0, math.Pow(0.2*b0, 2))
		zs := make([]float64, 0, len(rp.snaps))
		for i, s := range rp.snaps {
			if i > 0 && rp.snaps[i-1].ExpectedSpeedup > 0 && s.MeasuredGIPS > 0 {
				zs = append(zs, s.MeasuredGIPS/rp.snaps[i-1].ExpectedSpeedup)
			}
		}
		var solveErr error
		t0 := time.Now()
		for _, s := range rp.snaps {
			if _, err := f.Optimize(math.Round(s.SpeedupSetting*allocGrid)/allocGrid, rp.cycle); err != nil {
				solveErr = err
			}
		}
		optNs += int64(time.Since(t0))
		if solveErr != nil {
			return fmt.Errorf("optimizer replay: %w", solveErr)
		}
		t0 = time.Now()
		for _, z := range zs {
			_, _ = kf.Update(z)
		}
		kfNs += int64(time.Since(t0))
		calls += int64(len(rp.snaps))
		kfCalls += int64(len(zs))
	}
	res.set("core.cycles", float64(cycles)/passes, "count")
	res.set("core.optimize.ns_per_call", ratio(float64(optNs), float64(calls)), "ns")
	res.set("core.kalman.ns_per_call", ratio(float64(kfNs), float64(kfCalls)), "ns")
	res.set("core.optimize.cache_hit_ratio", ratio(float64(hits), float64(cycles)), "ratio")
	res.set("core.measure.rejected_ratio", ratio(float64(rejected), float64(cycles)), "ratio")
	return nil
}

// allocGrid is the controller's target quantization (allocCacheScale in
// controller.go): targets are solved on a 2^-12 grid.
const allocGrid = 4096
