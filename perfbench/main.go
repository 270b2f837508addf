// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed wall-clock budget and prints, as the last line of its
// output, one JSON object with the run's correctness verdict and its
// metrics: the end-to-end metrics untraced (--trace 0), or the
// per-layer attribution from a traced run (--trace 1).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload idle-hour --seed 1 --seconds 45 --trace 0
//
// See README.md in this directory for the workloads, every metric and
// the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aspeo/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: idle-hour or fleet-pop")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 45, "wall-clock seconds the run measures")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer attribution instead of the end-to-end run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	o := options{
		workload: *name, seed: *seed, trace: *trace == 1,
		seconds: time.Duration(*seconds * float64(time.Second)),
		workDir: workDir,
	}
	res, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options configure one measurement.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
	// spin and stall plant a fixed slowdown (the planted-regression
	// test): spin busy-waits inside every direct cell's actor ticks;
	// stall sleeps once in every fleet controller session, through the
	// fleet's own chaos hook, because fleet sessions are built inside
	// fleet.Manager where the actor wrapper cannot reach.
	spin, stall time.Duration
}

// result is one measurement's verdict and metrics.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	digest            string   // of every simulated statistic of one pass
	notes             []string // human-readable lines printed before the JSON
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

const (
	// setupReps is how many times the untraced run sets up; setup_s is
	// the median.
	setupReps = 5
	// kernelsPerPass is how many times the reference kernel runs before
	// each pass (see hostspeed.go).
	kernelsPerPass = 3
)

// measure runs one workload, traced or not.
func measure(o options) (*result, error) {
	e := env{workers: runtime.NumCPU(), workDir: o.workDir, stall: o.stall}
	if abs, err := filepath.Abs(o.workDir); err == nil {
		e.workDir = abs
	}
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var w workloadRunner
	var lay setupLayers
	var setupS []float64
	for i := 0; i < reps; i++ {
		var err error
		if w, err = newWorkload(o.workload); err != nil {
			return nil, err
		}
		lay = setupLayers{}
		t0 := time.Now()
		if err := w.setup(o.seed, e, &lay); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// The reference pass warms caches and fixes the records every later
	// pass must reproduce; it is not timed.
	base := instrument{spin: o.spin}
	ref, err := w.pass(base)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]metric{}}
	res.digest = digestOf(ref.records)
	res.attempted, res.failed = len(ref.records), ref.failed
	res.notes = append(res.notes, fmt.Sprintf("digest %s %s (%d sessions)", o.workload, res.digest, len(ref.records)))

	if o.trace {
		err = measureTraced(o, w, &lay, ref, res)
	} else {
		err = measureEndToEnd(o, w, ref, res, setupS)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// check compares a pass against the reference pass and counts the
// sessions it attempted and the ones that failed or differ.
func (r *result) check(ref, p passResult) {
	r.attempted += len(p.records)
	r.failed += p.failed
	if len(p.records) != len(ref.records) {
		r.failed += len(p.records)
		return
	}
	for i := range p.records {
		if p.records[i] != ref.records[i] {
			r.failed++
		}
	}
}

// measureEndToEnd is the untraced run: repeated passes for the wall
// budget, then the end-to-end metrics. Every pass runs the same
// sessions, so each session is timed once per pass and its best time
// over the run is kept; the timing metrics are taken over these best
// times and scaled to the reference host speed (see hostspeed.go).
func measureEndToEnd(o options, w workloadRunner, ref passResult, res *result, setupS []float64) error {
	in := instrument{spin: o.spin}
	var (
		best   []float64 // per session: its fastest host time over the passes
		kernel = math.Inf(1)
		passes int
		simS   float64
		m0, m1 runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for passes == 0 || time.Since(start) < o.seconds {
		for i := 0; i < kernelsPerPass; i++ {
			kernel = math.Min(kernel, timeKernel())
		}
		p, err := w.pass(in)
		if err != nil {
			return err
		}
		res.check(ref, p)
		passes++
		simS += p.simS
		if len(p.sessionMs) != len(ref.records) {
			continue // a failed fleet session has no time; check counted it
		}
		if best == nil {
			best = append(best, p.sessionMs...)
		}
		for i, v := range p.sessionMs {
			best[i] = math.Min(best[i], v)
		}
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	if best == nil {
		return fmt.Errorf("no pass completed every session")
	}

	// The paper check runs after the timed window, so it is in no timing.
	perr, err := paperErr(o.seed, w.paperPreps())
	if err != nil {
		return err
	}
	scale := refKernelMs / kernel
	p50, _ := quantile(best, 0.50)
	p95, enough := quantile(best, 0.95)
	sumMs := stats.Mean(best) * float64(len(best))
	res.set("setup_s", median(setupS)*scale, "s")
	res.set("sim_s_per_wall_s", ref.simS/(sumMs*scale/1e3), "s/s")
	res.set("session_ms_p50", p50*scale, "ms")
	res.set("session_ms_p95", p95*scale, "ms")
	res.set("allocs_per_sim_s", float64(m1.Mallocs-m0.Mallocs)/simS, "1/s")
	res.set("alloc_bytes_per_sim_s", float64(m1.TotalAlloc-m0.TotalAlloc)/simS, "B/s")
	res.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20), "MB")
	res.set("ok_frac", 1-ratio(float64(res.failed), float64(res.attempted)), "ratio")
	res.set("paper_err_pp", perr, "pp")
	res.notes = append(res.notes,
		fmt.Sprintf("samples: best times of %d sessions over %d passes; %d setups", len(best), passes, len(setupS)),
		fmt.Sprintf("host: reference kernel best %.4f ms, times scaled by %.4f", kernel, scale))
	if !enough {
		res.notes = append(res.notes, fmt.Sprintf("fewer than %d sessions beyond session_ms_p95 of %d", minBeyond, len(best)))
	}
	return nil
}
