package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aspeo/internal/lp"
	"aspeo/internal/profile"
)

// Optimize is the test-only pairwise oracle for the online Frontier: it
// solves the paper's energy LP by direct search: because the
// optimum of Eqns. (4)–(7) is a basic solution with at most two nonzero
// durations bracketing the required speedup (Fig. 3), it suffices to
// examine every (below, above) pair — O(N²), as the paper notes.
//
// entries must be sorted by ascending speedup (profile.Table.SortedBySpeedup).
func Optimize(entries []profile.Entry, target float64, T time.Duration) (Allocation, error) {
	if len(entries) == 0 {
		return Allocation{}, ErrEmptyTable
	}
	if !(target > 0) || math.IsInf(target, 0) {
		return Allocation{}, fmt.Errorf("%w: %v", ErrBadTarget, target)
	}

	minS, maxS := entries[0].Speedup, entries[len(entries)-1].Speedup

	// Below the table: no configuration is slow enough, so pick the
	// cheapest one (it still over-delivers performance).
	if target <= minS {
		best := entries[0]
		for _, e := range entries {
			if e.PowerW < best.PowerW {
				best = e
			}
		}
		return singleConfig(best, T), nil
	}
	// Above the table: saturate at the fastest configuration. Profiled
	// speedups of a demand-paced app are flat past the saturation knee,
	// so configurations within a small tolerance of the maximum deliver
	// the same performance — pick the cheapest of them.
	if target >= maxS {
		tol := 0.01 * maxS
		best := entries[len(entries)-1]
		for _, e := range entries {
			if e.Speedup >= maxS-tol && e.PowerW < best.PowerW {
				best = e
			}
		}
		return singleConfig(best, T), nil
	}

	bestEnergy := math.Inf(1)
	var best Allocation
	for _, lo := range entries {
		if lo.Speedup > target {
			continue
		}
		for _, hi := range entries {
			if hi.Speedup < target || hi.Speedup <= lo.Speedup {
				continue
			}
			// τ_h from the performance constraint Sᵀu = s_n·T.
			frac := (target - lo.Speedup) / (hi.Speedup - lo.Speedup)
			energy := (lo.PowerW*(1-frac) + hi.PowerW*frac) * T.Seconds()
			if energy < bestEnergy {
				bestEnergy = energy
				tauHigh := time.Duration(float64(T) * frac)
				best = Allocation{
					Low: lo, High: hi,
					TauLow:          T - tauHigh,
					TauHigh:         tauHigh,
					ExpectedPowerW:  energy / T.Seconds(),
					ExpectedSpeedup: target,
				}
			}
		}
	}
	if math.IsInf(bestEnergy, 1) {
		// target strictly inside (minS, maxS) guarantees a pair exists;
		// reaching here means equal speedups bracket it exactly. The
		// tolerance is relative to the target so large-speedup tables
		// (where 1e-9 is below one ulp) still match their exact entry.
		tol := 1e-9 * math.Max(1, math.Abs(target))
		for _, e := range entries {
			if math.Abs(e.Speedup-target) < tol {
				return singleConfig(e, T), nil
			}
		}
		return Allocation{}, fmt.Errorf("core: no feasible pair for target %v", target)
	}
	return best, nil
}

// OptimizeLP is the test-only simplex oracle: the same problem through
// the controller's UseLP solve path (internal/lp on Eqns. (4)–(7)
// verbatim), with fresh scratch. It cross-validates Optimize and the
// Frontier — all three must agree on the optimal energy.
func OptimizeLP(entries []profile.Entry, target float64, T time.Duration) (Allocation, error) {
	n := len(entries)
	var ws lp.Workspace
	return optimizeLPWith(&ws, make([]float64, n), make([]float64, n), make([]float64, n),
		entries, target, T)
}

// tbl builds a sorted entry list from (speedup, power) pairs.
func tbl(pairs ...[2]float64) []profile.Entry {
	out := make([]profile.Entry, len(pairs))
	for i, p := range pairs {
		out[i] = profile.Entry{FreqIdx: i, BWIdx: 0, Speedup: p[0], PowerW: p[1]}
	}
	return out
}

const T = 2 * time.Second

func TestOptimizeEmptyTable(t *testing.T) {
	if _, err := Optimize(nil, 1.5, T); err != ErrEmptyTable {
		t.Fatalf("expected ErrEmptyTable, got %v", err)
	}
}

func TestOptimizeBadTarget(t *testing.T) {
	entries := tbl([2]float64{1, 1})
	for _, target := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := Optimize(entries, target, T); err == nil {
			t.Errorf("target %v should error", target)
		}
	}
}

func TestOptimizeBelowTable(t *testing.T) {
	entries := tbl([2]float64{2, 3.0}, [2]float64{2.5, 2.0}, [2]float64{3, 4.0})
	a, err := Optimize(entries, 1.0, T)
	if err != nil {
		t.Fatal(err)
	}
	// Cheapest entry wins (it over-delivers anyway).
	if a.Low.PowerW != 2.0 || a.TauLow != T || a.TauHigh != 0 {
		t.Fatalf("below-table allocation = %+v", a)
	}
}

func TestOptimizeAboveTableSaturates(t *testing.T) {
	// The plateau: near-equal speedups at very different powers. The
	// cheapest within tolerance of the max must win.
	entries := tbl([2]float64{1, 1.5}, [2]float64{2.995, 2.0}, [2]float64{3.0, 3.5})
	a, err := Optimize(entries, 5.0, T)
	if err != nil {
		t.Fatal(err)
	}
	if a.Low.PowerW != 2.0 {
		t.Fatalf("saturation must pick the cheap plateau config, got %+v", a.Low)
	}
	if a.TauLow != T {
		t.Fatalf("saturation should be a single config: %+v", a)
	}
}

func TestOptimizeInteriorMixesTwoConfigs(t *testing.T) {
	entries := tbl([2]float64{1, 1.6}, [2]float64{2, 2.2}, [2]float64{3, 3.6})
	a, err := Optimize(entries, 1.5, T)
	if err != nil {
		t.Fatal(err)
	}
	if a.Low.Speedup != 1 || a.High.Speedup != 2 {
		t.Fatalf("bracket = (%v, %v)", a.Low.Speedup, a.High.Speedup)
	}
	if math.Abs(a.TauLow.Seconds()-1.0) > 1e-9 || math.Abs(a.TauHigh.Seconds()-1.0) > 1e-9 {
		t.Fatalf("durations = (%v, %v), want (1s, 1s)", a.TauLow, a.TauHigh)
	}
	if math.Abs(a.ExpectedPowerW-1.9) > 1e-9 {
		t.Fatalf("expected power = %v, want 1.9", a.ExpectedPowerW)
	}
	if math.Abs(a.TauLow.Seconds()+a.TauHigh.Seconds()-T.Seconds()) > 1e-9 {
		t.Fatal("durations must sum to the cycle")
	}
}

func TestOptimizePicksCheapestBracket(t *testing.T) {
	// Two candidate brackets around 2.0: the hull should use the
	// cheaper pair (1.9, 2.1) rather than (1.0, 3.0).
	entries := tbl(
		[2]float64{1.0, 1.5},
		[2]float64{1.9, 1.7},
		[2]float64{2.1, 1.8},
		[2]float64{3.0, 4.0},
	)
	a, err := Optimize(entries, 2.0, T)
	if err != nil {
		t.Fatal(err)
	}
	if a.Low.Speedup != 1.9 || a.High.Speedup != 2.1 {
		t.Fatalf("bracket = (%v, %v), want (1.9, 2.1)", a.Low.Speedup, a.High.Speedup)
	}
}

func TestOptimizeExactMatchSingleConfig(t *testing.T) {
	entries := tbl([2]float64{1, 1.5}, [2]float64{2, 2.0}, [2]float64{3, 3.5})
	a, err := Optimize(entries, 2.0, T)
	if err != nil {
		t.Fatal(err)
	}
	// An exact match competes as lo of (lo,hi) pairs; energy-optimal is
	// still effectively the single config.
	got := a.ExpectedPowerW
	if got > 2.0+1e-9 {
		t.Fatalf("expected power %v exceeds the exact config's 2.0", got)
	}
}

// Optimize and OptimizeLP must agree on the optimal energy for interior
// targets (the LP is the paper's formal formulation, the search is the
// O(N²) shortcut the paper describes).
func TestOptimizeMatchesLPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		entries := make([]profile.Entry, n)
		s, p := 1.0, 1.0+rng.Float64()
		for i := 0; i < n; i++ {
			entries[i] = profile.Entry{FreqIdx: i, Speedup: s, PowerW: p}
			s += 0.05 + rng.Float64()*0.5
			p += 0.05 + rng.Float64()
		}
		target := entries[0].Speedup +
			rng.Float64()*(entries[n-1].Speedup-entries[0].Speedup)
		a1, err1 := Optimize(entries, target, T)
		a2, err2 := OptimizeLP(entries, target, T)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a1.ExpectedPowerW-a2.ExpectedPowerW) < 1e-6*math.Max(1, a1.ExpectedPowerW)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The allocation must satisfy the LP constraints: Sᵀu = s·T, 1ᵀu = T.
func TestOptimizeConstraintsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		entries := make([]profile.Entry, n)
		s, p := 1.0, 1.5
		for i := 0; i < n; i++ {
			entries[i] = profile.Entry{FreqIdx: i, Speedup: s, PowerW: p}
			s += 0.1 + rng.Float64()
			p += 0.1 + rng.Float64()
		}
		target := entries[0].Speedup + rng.Float64()*(entries[n-1].Speedup-entries[0].Speedup)
		a, err := Optimize(entries, target, T)
		if err != nil {
			return false
		}
		tl, th := a.TauLow.Seconds(), a.TauHigh.Seconds()
		if tl < -1e-9 || th < -1e-9 {
			return false
		}
		if math.Abs(tl+th-T.Seconds()) > 1e-6 {
			return false
		}
		achieved := (a.Low.Speedup*tl + a.High.Speedup*th) / T.Seconds()
		return math.Abs(achieved-target) < 1e-6*math.Max(1, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneDominated(t *testing.T) {
	entries := tbl(
		[2]float64{1.0, 1.5},
		[2]float64{2.0, 2.0},
		[2]float64{2.01, 3.5}, // ε-dominated by the 2.0@2.0 entry
		[2]float64{3.0, 4.0},
	)
	kept := pruneDominated(entries, 0.02)
	if len(kept) != 3 {
		t.Fatalf("kept %d entries, want 3: %+v", len(kept), kept)
	}
	for _, e := range kept {
		if e.PowerW == 3.5 {
			t.Fatal("the dominated entry survived")
		}
	}
}

func TestPruneDominatedDisabled(t *testing.T) {
	entries := tbl([2]float64{1, 2}, [2]float64{1.001, 5})
	if got := pruneDominated(entries, -1); len(got) != 2 {
		t.Fatalf("negative ε must disable pruning, kept %d", len(got))
	}
}

func TestPruneDominatedKeepsPareto(t *testing.T) {
	// A strictly increasing frontier must survive untouched.
	entries := tbl([2]float64{1, 1}, [2]float64{2, 2}, [2]float64{3, 3})
	if got := pruneDominated(entries, 0.02); len(got) != 3 {
		t.Fatalf("pruned a clean Pareto frontier to %d entries", len(got))
	}
}

func TestPruneDominatedNeverEmpty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		entries := make([]profile.Entry, n)
		s := 1.0
		for i := 0; i < n; i++ {
			entries[i] = profile.Entry{Speedup: s, PowerW: 1 + rng.Float64()*3}
			s += rng.Float64() * 0.1
		}
		kept := pruneDominated(entries, 0.05)
		if len(kept) == 0 {
			return false
		}
		// Order must be preserved.
		for i := 1; i < len(kept); i++ {
			if kept[i].Speedup < kept[i-1].Speedup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimize117Entries(b *testing.B) {
	// A realistic table: 9 profiled frequencies × 13 bandwidths.
	entries := make([]profile.Entry, 117)
	s, p := 1.0, 1.6
	for i := range entries {
		entries[i] = profile.Entry{FreqIdx: i / 13, BWIdx: i % 13, Speedup: s, PowerW: p}
		s += 0.03
		p += 0.02
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(entries, 2.2, T); err != nil {
			b.Fatal(err)
		}
	}
}
