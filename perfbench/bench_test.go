package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// These tests run real workloads for a few seconds each; -short skips
// them. Run them from this directory: go test ./...

func mustMeasure(t *testing.T, o options) *result {
	t.Helper()
	o.workDir = t.TempDir()
	res, err := measure(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d sessions failed a correctness check", o.workload, res.failed, res.attempted)
	}
	return res
}

// TestTracedMatchesUntraced: wrapping every actor in the timing layer
// and the device in the sysfs decorator must not change one simulated
// statistic, on any workload. On fleet-pop the traced sessions are
// direct runs, so this also shows every fleet session equals the direct
// run of its config.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain := mustMeasure(t, options{workload: name, seed: 3, seconds: 100 * time.Millisecond})
			traced := mustMeasure(t, options{workload: name, seed: 3, seconds: 400 * time.Millisecond, trace: true})
			if plain.digest != traced.digest {
				t.Fatalf("digest: untraced %s, traced %s", plain.digest, traced.digest)
			}
			// Engine.Run is sim.self plus actor ticks by construction;
			// what lies outside it (construction, summary) must be small.
			if r := traced.metrics["session.residual_share"].Value; !(r >= 0 && r < 0.2) {
				t.Errorf("session.residual_share = %v, want in [0, 0.2)", r)
			}
		})
	}
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// regressions is the benchmark's comparison: every end-to-end metric
// whose median over the change's runs is worse than the median over the
// parent's runs by more than the metric's bound.
func regressions(t *testing.T, spec benchSpec, parent, change []*result) []string {
	var out []string
	for _, m := range spec.EndToEnd {
		med := func(rs []*result) float64 {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = r.metrics[m.Name].Value
			}
			return median(xs)
		}
		p, c := med(parent), med(change)
		t.Logf("%-22s parent %12.5g change %12.5g (%+.1f%%)", m.Name, p, c, 100*(c/p-1))
		worse := c > p*(1+m.Bound)
		if m.Better == "higher" {
			worse = c < p*(1-m.Bound)
		}
		if worse {
			out = append(out, m.Name)
		}
	}
	return out
}

// TestPlantedRegression plants a fixed slowdown that adds no actor and
// leaves the event schedule alone, and checks the comparison flags it on
// idle-hour and fleet-pop while passing unchanged code. On idle-hour the
// slowdown spins inside the benchmark's actor wrapper on every tick;
// fleet sessions are out of its reach, so on fleet-pop it is the fleet's
// own chaos stall, once per controller session. Each is sized so that
// the drop in sim_s_per_wall_s lands a few tens of points past its 0.25
// bound. The parent, unchanged and planted runs take turns seed by seed,
// so a host that slows down for a while slows all three alike.
func TestPlantedRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads fifteen times")
	}
	spec := readSpec(t)
	for _, tc := range []struct {
		name        string
		spin, stall time.Duration
	}{
		{name: "idle-hour", spin: 200 * time.Nanosecond},
		{name: "fleet-pop", stall: 5500 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var parent, same, planted []*result
			for seed := int64(1); seed <= 5; seed++ {
				run := func(spin, stall time.Duration) *result {
					return mustMeasure(t, options{
						workload: tc.name, seed: seed, seconds: 4 * time.Second,
						spin: spin, stall: stall,
					})
				}
				parent = append(parent, run(0, 0))
				same = append(same, run(0, 0))
				planted = append(planted, run(tc.spin, tc.stall))
			}
			if regs := regressions(t, spec, parent, same); len(regs) > 0 {
				t.Errorf("unchanged code flagged: %v", regs)
			}
			regs := regressions(t, spec, parent, planted)
			for _, want := range []string{"sim_s_per_wall_s", "session_ms_p50"} {
				if !slices.Contains(regs, want) {
					t.Errorf("planted slowdown not flagged on %s (flagged: %v)", want, regs)
				}
			}
		})
	}
}
