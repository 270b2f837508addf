// Package pmu models the performance monitoring unit of the SoC: free-
// running hardware counters that the perf tool samples to derive the
// GIPS performance metric (paper §III-B2).
//
// The simulator advances the counters; readers (the perf tool emulation)
// take snapshots and compute deltas, exactly like `perf stat` does with
// the ARM PMU cycle and instruction counters.
package pmu

import "aspeo/internal/fpacc"

// Counter identifies one hardware event counter.
type Counter int

// Supported counters.
const (
	Instructions   Counter = iota // instructions retired (all cores)
	Cycles                        // core cycles while busy
	BusAccessBytes                // bytes moved on the memory bus
	numCounters
)

// String returns the perf-style event name.
func (c Counter) String() string {
	switch c {
	case Instructions:
		return "instructions"
	case Cycles:
		return "cycles"
	case BusAccessBytes:
		return "bus-access-bytes"
	}
	return "unknown"
}

// PMU is the set of counters. It is not safe for concurrent use: the
// goroutine that owns the phone owns its PMU, and both the simulator's
// writes and the perf tool's reads happen on that goroutine. Other
// goroutines see counter values only through cycle-boundary snapshots
// published by the owner.
type PMU struct {
	counts [numCounters]float64
}

// New returns a PMU with zeroed counters.
func New() *PMU { return &PMU{} }

// Add advances a counter by delta. Negative deltas are ignored — hardware
// counters only move forward.
func (p *PMU) Add(c Counter, delta float64) {
	if delta <= 0 || c < 0 || c >= numCounters {
		return
	}
	p.counts[c] += delta
}

// AddSpan advances a counter by delta, n times in sequence —
// bit-identical to n successive Add calls — but in closed form via
// fpacc.AddK, so the cost is logarithmic in n. The simulator uses it to
// integrate counter movement over variable-length quiescent intervals.
func (p *PMU) AddSpan(c Counter, delta float64, n int) {
	if delta <= 0 || n <= 0 || c < 0 || c >= numCounters {
		return
	}
	p.counts[c] = fpacc.AddK(p.counts[c], delta, n)
}

// Read returns the current value of a counter.
func (p *PMU) Read(c Counter) float64 {
	if c < 0 || c >= numCounters {
		return 0
	}
	return p.counts[c]
}

// Snapshot captures all counters at once, so a reader can compute
// mutually consistent deltas.
type Snapshot struct {
	values [numCounters]float64
}

// Snapshot returns a consistent snapshot of all counters.
func (p *PMU) Snapshot() Snapshot {
	return Snapshot{values: p.counts}
}

// SnapshotAt reconstructs a snapshot from recorded absolute counter
// values. Replay backends use it to hand readers the exact counter
// state a recorded run observed: deltas between two reconstructed
// snapshots are plain subtractions of the recorded values, so a
// recorded measurement chain reproduces bit-for-bit.
func SnapshotAt(instructions, cycles, busAccessBytes float64) Snapshot {
	var s Snapshot
	s.values[Instructions] = instructions
	s.values[Cycles] = cycles
	s.values[BusAccessBytes] = busAccessBytes
	return s
}

// Values returns the snapshot's absolute counter values in counter
// order (instructions, cycles, bus-access bytes) — the inverse of
// SnapshotAt, used when checkpointing counter state.
func (cur Snapshot) Values() (instructions, cycles, busAccessBytes float64) {
	return cur.values[Instructions], cur.values[Cycles], cur.values[BusAccessBytes]
}

// Restore overwrites the live counters with a snapshot's values. The
// checkpoint/restore path uses it to resume a session with the exact
// counter state the original run had, so every downstream delta (perf
// windows, run summaries) reproduces bit-for-bit.
func (p *PMU) Restore(s Snapshot) {
	p.counts = s.values
}

// Delta returns the counter movement between two snapshots (cur - prev).
func (cur Snapshot) Delta(prev Snapshot, c Counter) float64 {
	if c < 0 || c >= numCounters {
		return 0
	}
	return cur.values[c] - prev.values[c]
}
