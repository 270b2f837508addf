// Package benchrec defines the tracked benchmark record — the
// BENCH_*.json files `make bench` writes at the repo root — and the
// regression comparison `make ci` runs against the committed record.
//
// A record is a fixed suite of seeded scenarios (the six evaluated apps
// under the controller, plus a fleet slice) with four metrics each:
//
//   - cycles/sec — control cycles retired per wall second;
//   - sim_s_per_wall_s — simulated device seconds per wall second;
//   - allocs_per_cycle — heap allocations per control cycle
//     (AllocsPerRun-style: a Mallocs delta over the measured run);
//   - p95_cycle_ms — the 95th-percentile wall-clock latency of one
//     control cycle, from an internal/histogram.Dist of inter-cycle
//     gaps.
//
// Wall-clock throughput is machine-dependent, so a record carries a
// calibration score — the throughput of a fixed arithmetic kernel on
// the machine that produced it — and Compare normalizes cycles/sec and
// sim/wall by it, then gates on the geometric mean across the suite
// rather than per scenario (one short scenario's wall time is noise; a
// real hot-path regression slows the whole suite). Allocation counts
// are machine-independent and gate per scenario, raw.
package benchrec

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// Schema is the record format version; Compare refuses records from a
// different schema rather than misreading renamed fields as zeros.
const Schema = 1

// Scenario is one measured suite entry.
type Scenario struct {
	Name string `json:"name"`
	// SimSeconds is the simulated duration covered by the measurement.
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is the wall-clock time the measurement took.
	WallSeconds float64 `json:"wall_seconds"`
	// Cycles is the number of control cycles retired (0 for
	// governor-only scenarios).
	Cycles int `json:"cycles"`
	// CyclesPerSec is Cycles / WallSeconds.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// SimPerWall is SimSeconds / WallSeconds.
	SimPerWall float64 `json:"sim_s_per_wall_s"`
	// AllocsPerCycle is the heap-allocation count per control cycle
	// over the measured run (runtime.MemStats.Mallocs delta / Cycles).
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	// P95CycleMs is the 95th-percentile wall latency of one control
	// cycle in milliseconds (0 when not measured, e.g. fleet slices).
	P95CycleMs float64 `json:"p95_cycle_ms"`
}

// Record is one complete benchmark run.
type Record struct {
	SchemaVersion int    `json:"schema"`
	GoVersion     string `json:"go_version"`
	// CalibScore is the machine-speed proxy: iterations/µs of the fixed
	// Calibrate kernel on the machine that produced the record.
	CalibScore float64    `json:"calibration_score"`
	Scenarios  []Scenario `json:"scenarios"`
}

// New returns a Record stamped with the current schema and toolchain.
func New() *Record {
	return &Record{SchemaVersion: Schema, GoVersion: runtime.Version()}
}

// Find returns the named scenario, or nil.
func (r *Record) Find(name string) *Scenario {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// WriteFile writes the record as indented JSON (newline-terminated, so
// the committed file is diff-friendly).
func (r *Record) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a record written by WriteFile.
func ReadFile(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchrec: %s: %w", path, err)
	}
	return &r, nil
}

// calibSink keeps the calibration kernel's result observable so the
// compiler cannot elide the loop.
var calibSink float64

// calibIters is sized so Calibrate takes on the order of 100 ms on a
// mid-range core — long enough to ride out scheduler noise, short
// enough to run on every bench invocation.
const calibIters = 1 << 25

// Calibrate measures the machine-speed proxy: iterations/µs of a fixed
// mixed integer/floating kernel shaped like the simulator's hot loop
// (multiply-adds and a cheap PRNG step). Records taken on machines of
// different speeds become comparable after dividing their wall-clock
// throughputs by this score.
func Calibrate() float64 {
	start := time.Now()
	var x uint64 = 0x9E3779B97F4A7C15
	s := 1.0
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s = s*1.0000000001 + float64(x&0xFF)*1e-12
	}
	el := time.Since(start)
	calibSink = s
	return float64(calibIters) / (float64(el.Nanoseconds()) / 1e3)
}

// Regression is one failed comparison.
type Regression struct {
	Scenario string
	Metric   string
	// Base and Cur are the compared values — normalized by the records'
	// calibration scores for wall-clock metrics, raw for allocations.
	Base, Cur float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed: %.4g -> %.4g", r.Scenario, r.Metric, r.Base, r.Cur)
}

// allocSlack is the absolute allocation headroom per cycle on top of
// the relative tolerance, so near-zero baselines (the steady state is
// allocation-free) do not fail on a fractional-alloc wobble while a
// genuine 0 → 1 allocs/cycle regression still does.
const allocSlack = 0.5

// Compare diffs cur against base and returns every regression beyond
// tol (e.g. 0.10 for 10%).
//
// Machine-independent metrics gate per scenario: allocs/cycle (raw,
// with half-an-allocation absolute slack) and scenario presence (a
// suite that silently shrank is a regression). Wall-clock throughput
// gates at the suite level: the geometric mean, across all shared
// scenarios, of the per-scenario ratio of calibration-normalized
// cycles/sec (and likewise sim/wall) must not fall below 1−tol. A
// single short scenario's wall time is at the mercy of the scheduler
// even after calibration normalization; the geomean over the whole
// suite averages that noise out while still catching a real hot-path
// regression, which slows every scenario at once. Records from
// different schemas are an error, not a comparison.
func Compare(base, cur *Record, tol float64) ([]Regression, error) {
	if base.SchemaVersion != cur.SchemaVersion {
		return nil, fmt.Errorf("benchrec: schema mismatch: baseline v%d vs current v%d",
			base.SchemaVersion, cur.SchemaVersion)
	}
	if base.CalibScore <= 0 || cur.CalibScore <= 0 {
		return nil, fmt.Errorf("benchrec: non-positive calibration score (baseline %v, current %v)",
			base.CalibScore, cur.CalibScore)
	}
	var regs []Regression
	var logCyc, logSim float64
	var nCyc, nSim int
	for _, b := range base.Scenarios {
		c := cur.Find(b.Name)
		if c == nil {
			regs = append(regs, Regression{Scenario: b.Name, Metric: "present", Base: 1, Cur: 0})
			continue
		}
		if b.CyclesPerSec > 0 && c.CyclesPerSec > 0 {
			logCyc += math.Log((c.CyclesPerSec / cur.CalibScore) / (b.CyclesPerSec / base.CalibScore))
			nCyc++
		}
		if b.SimPerWall > 0 && c.SimPerWall > 0 {
			logSim += math.Log((c.SimPerWall / cur.CalibScore) / (b.SimPerWall / base.CalibScore))
			nSim++
		}
		if b.Cycles > 0 && c.AllocsPerCycle > b.AllocsPerCycle*(1+tol)+allocSlack {
			regs = append(regs, Regression{
				Scenario: b.Name, Metric: "allocs_per_cycle",
				Base: b.AllocsPerCycle, Cur: c.AllocsPerCycle,
			})
		}
	}
	if nCyc > 0 {
		if ratio := math.Exp(logCyc / float64(nCyc)); ratio < 1-tol {
			regs = append(regs, Regression{
				Scenario: "suite", Metric: "cycles_per_sec(geomean,normalized)",
				Base: 1, Cur: ratio,
			})
		}
	}
	if nSim > 0 {
		if ratio := math.Exp(logSim / float64(nSim)); ratio < 1-tol {
			regs = append(regs, Regression{
				Scenario: "suite", Metric: "sim_s_per_wall_s(geomean,normalized)",
				Base: 1, Cur: ratio,
			})
		}
	}
	return regs, nil
}
