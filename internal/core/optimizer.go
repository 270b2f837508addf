// Package core implements the paper's contribution: the application-
// specific, performance-aware energy controller (paper §III-B).
//
// Each control cycle of T = 2 s the controller
//
//  1. measures application performance y_n in GIPS through the perf tool
//     (Eqn. 2: e_n = r − y_n),
//  2. updates its Kalman estimate of the application base speed b_n and
//     integrates the error into a required speedup
//     s_n = s_{n−1} + e_{n−1}/b_{n−1} (Eqn. 3 — an adaptive-gain
//     integral regulator),
//  3. solves the energy-minimization linear program (Eqns. 4–7) over the
//     offline profiling table, whose optimum uses at most two
//     configurations c_l and c_h, and
//  4. schedules c_l for τ_l seconds and c_h for τ_h seconds by writing
//     the cpufreq/devfreq userspace sysfs files, on a 200 ms quantum.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"aspeo/internal/lp"
	"aspeo/internal/profile"
)

// Allocation is the energy optimizer's decision for one control cycle:
// run Low for TauLow, then High for TauHigh (TauLow + TauHigh = T). When
// a single configuration suffices, Low == High and TauHigh == 0.
type Allocation struct {
	Low, High profile.Entry
	TauLow    time.Duration
	TauHigh   time.Duration
	// ExpectedPowerW is the table-predicted average power of the mix.
	ExpectedPowerW float64
	// ExpectedSpeedup is the table-predicted average speedup.
	ExpectedSpeedup float64
}

// Errors returned by the optimizer.
var (
	ErrEmptyTable = errors.New("core: empty profile table")
	ErrBadTarget  = errors.New("core: target speedup must be positive and finite")
)

// pruneDominated removes entries that are ε-dominated: entry A is pruned
// when some entry B has strictly lower power and speedup(B) ≥
// speedup(A)/(1+ε). With ε = 0 this is plain Pareto pruning; a small
// positive ε additionally collapses the saturation plateau of demand-
// paced applications, whose measured speedups differ only by noise.
// entries must be sorted by ascending speedup; the result keeps that
// order and is never empty.
func pruneDominated(entries []profile.Entry, eps float64) []profile.Entry {
	if eps < 0 || len(entries) <= 1 {
		return entries
	}
	keep := make([]profile.Entry, 0, len(entries))
	for i, e := range entries {
		dominated := false
		for j, other := range entries {
			if i == j {
				continue
			}
			if other.PowerW < e.PowerW && other.Speedup >= e.Speedup/(1+eps) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, e)
		}
	}
	if len(keep) == 0 {
		return entries
	}
	return keep
}

func singleConfig(e profile.Entry, T time.Duration) Allocation {
	return Allocation{
		Low: e, High: e, TauLow: T, TauHigh: 0,
		ExpectedPowerW: e.PowerW, ExpectedSpeedup: e.Speedup,
	}
}

// optimizeLP is the controller's UseLP-mode solve: the general simplex
// solver from internal/lp on the formulation of Eqns. (4)–(7) verbatim,
// with the simplex workspace and the problem-row vectors kept on the
// controller across cycles instead of being rebuilt.
func (c *Controller) optimizeLP(target float64) (Allocation, error) {
	if n := len(c.entries); len(c.lpC) < n {
		c.lpC = make([]float64, n)
		c.lpS = make([]float64, n)
		c.lpOnes = make([]float64, n)
	}
	n := len(c.entries)
	return optimizeLPWith(&c.lpWS, c.lpC[:n], c.lpS[:n], c.lpOnes[:n],
		c.entries, target, c.opt.CycleT)
}

// optimizeLPWith solves the energy LP into caller-supplied scratch: c,
// sRow and ones must be len(entries) vectors, overwritten on every call.
func optimizeLPWith(ws *lp.Workspace, c, sRow, ones []float64,
	entries []profile.Entry, target float64, T time.Duration) (Allocation, error) {
	if len(entries) == 0 {
		return Allocation{}, ErrEmptyTable
	}
	if !(target > 0) || math.IsInf(target, 0) {
		return Allocation{}, fmt.Errorf("%w: %v", ErrBadTarget, target)
	}
	minS, maxS := entries[0].Speedup, entries[len(entries)-1].Speedup
	clamped := math.Max(minS, math.Min(maxS, target))

	for i, e := range entries {
		c[i] = e.PowerW
		sRow[i] = e.Speedup
		ones[i] = 1
	}
	Tsec := T.Seconds()
	sol, err := ws.Solve(&lp.Problem{
		C:   c,
		A:   [][]float64{sRow, ones},
		B:   []float64{clamped * Tsec, Tsec},
		Rel: []lp.Relation{lp.EQ, lp.EQ},
	})
	if err != nil {
		return Allocation{}, fmt.Errorf("core: lp solve: %w", err)
	}

	// Extract the (at most two) nonzero durations.
	type pick struct {
		e   profile.Entry
		tau float64
	}
	var picks []pick
	for i, u := range sol.X {
		if u > 1e-7 {
			picks = append(picks, pick{entries[i], u})
		}
	}
	switch len(picks) {
	case 0:
		return Allocation{}, fmt.Errorf("core: lp returned empty allocation")
	case 1:
		a := singleConfig(picks[0].e, T)
		a.ExpectedPowerW = sol.Objective / Tsec
		return a, nil
	case 2:
		lo, hi := picks[0], picks[1]
		if lo.e.Speedup > hi.e.Speedup {
			lo, hi = hi, lo
		}
		return Allocation{
			Low: lo.e, High: hi.e,
			TauLow:          time.Duration(lo.tau * float64(time.Second)),
			TauHigh:         time.Duration(hi.tau * float64(time.Second)),
			ExpectedPowerW:  sol.Objective / Tsec,
			ExpectedSpeedup: clamped,
		}, nil
	default:
		return Allocation{}, fmt.Errorf("core: lp basic solution has %d nonzeros, expected <= 2", len(picks))
	}
}
