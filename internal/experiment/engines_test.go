package experiment_test

// Engine golden equivalence: a session on the event core's fast paths
// must reproduce the same session run one Phone.Step at a time, bit for
// bit, on every observable surface — summary JSON and the controller's
// allocation log. The step-at-a-time reference is the same spec with a
// full-rate trace recorder attached: recording disables the step-plan
// capture StepSpan replays, so every step of that run takes the slow
// path. Like the tracing and kill-restore goldens, these tests compare
// serialized bytes, not tolerances.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/sim"
	"aspeo/internal/trace"
)

// engineProfile writes the synthetic convex coordinated profile shared
// by the golden suites, so controller sessions skip on-the-fly
// profiling.
func engineProfile(t *testing.T) (path string, target float64) {
	t.Helper()
	tab := &profile.Table{App: "golden", Load: "BL", Mode: profile.Coordinated, BaseGIPS: 0.8}
	s, p, step := 1.0, 1.6, 0.012
	for f := 0; f < 9; f++ {
		for bw := 0; bw < 13; bw++ {
			tab.Entries = append(tab.Entries, profile.Entry{
				FreqIdx: 2 * f, BWIdx: bw,
				Speedup: s, PowerW: p, GIPS: s * tab.BaseGIPS,
			})
			s += 0.02
			p += step
			step += 0.0004
		}
	}
	path = filepath.Join(t.TempDir(), "golden.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, 0.5 * (tab.MinSpeedup() + tab.MaxSpeedup()) * tab.BaseGIPS
}

// runSession runs the spec and returns every observable surface:
// summary bytes, the controller allocation log, and the full-rate trace
// (nil unless TraceEvery was set).
func runSession(t *testing.T, spec experiment.SessionSpec) ([]byte, []interface{}, []trace.Point) {
	t.Helper()
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Run(nil)
	raw, err := json.Marshal(report.NewRunSummary(sess, st))
	if err != nil {
		t.Fatal(err)
	}
	var log []interface{}
	if sess.Controller != nil {
		for _, r := range sess.Controller.AllocationLog() {
			log = append(log, r)
		}
	}
	var pts []trace.Point
	if rec := sess.Harness.Phone.Recorder(); rec != nil {
		pts = append(pts, rec.Points()...)
	}
	return raw, log, pts
}

// checkEngineEquivalence asserts the untraced spec and its full-rate
// traced step-at-a-time reference produce byte-identical outputs.
func checkEngineEquivalence(t *testing.T, spec experiment.SessionSpec) {
	t.Helper()
	evRaw, evLog, _ := runSession(t, spec)
	ref := spec
	ref.TraceEvery = sim.DefaultStep
	refRaw, refLog, refPts := runSession(t, ref)
	// One trace point per Phone.Step: the reference really walked the
	// whole session step by step.
	if want := int(spec.RunFor / sim.DefaultStep); len(refPts) != want {
		t.Fatalf("reference recorded %d points, want %d (one per step)", len(refPts), want)
	}
	if !bytes.Equal(evRaw, refRaw) {
		t.Fatalf("summary diverges from the step-at-a-time reference:\nevent     %s\nreference %s", evRaw, refRaw)
	}
	if !reflect.DeepEqual(evLog, refLog) {
		t.Fatalf("allocation log diverges from the step-at-a-time reference:\nevent     %d records %v\nreference %d records %v",
			len(evLog), evLog, len(refLog), refLog)
	}
}

// TestEngineEquivalenceController: the paper controller on a stored
// profile — the standard evaluation cell.
func TestEngineEquivalenceController(t *testing.T) {
	prof, target := engineProfile(t)
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 7,
		RunFor: 60 * time.Second, LogAllocations: true,
	})
}

// TestEngineEquivalenceGovernor: stock kernel governors, the fastest
// actor cadence (20 ms sampling) — maximal event-queue churn.
func TestEngineEquivalenceGovernor(t *testing.T) {
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "wechat", Load: "HL", Governor: "interactive", Seed: 7,
		RunFor: 30 * time.Second,
	})
}

// TestEngineEquivalenceFaults: the combined chaos scenario layered on
// the controller — fault firings are scheduled events too.
func TestEngineEquivalenceFaults(t *testing.T) {
	prof, target := engineProfile(t)
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 11,
		RunFor: 60 * time.Second, LogAllocations: true,
		Faults: "combined",
	})
}
