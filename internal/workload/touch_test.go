package workload

import (
	"math"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/perfmodel"
)

// touchesRef is Touches without the memo: the Poisson threshold is
// recomputed with math.Exp on every call. It is the oracle the memoized
// path must match draw for draw.
func touchesRef(t *Task, dt time.Duration) int {
	if t.done {
		return 0
	}
	rate := t.Spec.Phases[t.phaseIdx].TouchRate * dt.Seconds()
	if rate <= 0 {
		return 0
	}
	n := 0
	l := math.Exp(-rate)
	p := t.rng.Float64()
	for p > l {
		n++
		p *= t.rng.Float64()
	}
	return n
}

// touchSpec loops three paced phases whose touch rates differ, one of
// them zero, so the memo sees rate changes in both directions.
func touchSpec() *Spec {
	tr := perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1}
	return &Spec{
		Name: "touchy",
		Phases: []Phase{
			{Name: "tap", Kind: Paced, Traits: tr, Duration: 50 * time.Millisecond, DemandGIPS: 0.5, TouchRate: 40},
			{Name: "still", Kind: Paced, Traits: tr, Duration: 30 * time.Millisecond, DemandGIPS: 0.5},
			{Name: "swipe", Kind: Paced, Traits: tr, Duration: 40 * time.Millisecond, DemandGIPS: 0.5, TouchRate: 250},
		},
		Loop:   true,
		RunFor: time.Minute,
	}
}

// driveTouches steps the task through a schedule whose dt changes
// partway (1 ms, then 3 ms, then 1 ms again) and returns the touch
// count and phase index seen at every step.
func driveTouches(task *Task, touches func(*Task, time.Duration) int) (counts, phases []int) {
	for i := 0; i < 900; i++ {
		dt := time.Millisecond
		if i >= 300 && i < 600 {
			dt = 3 * time.Millisecond
		}
		d := task.Demand(dt)
		task.Advance(d.WantedInstr, dt)
		counts = append(counts, touches(task, dt))
		phases = append(phases, task.PhaseIndex())
	}
	return counts, phases
}

func TestTouchMemoMatchesExpOracle(t *testing.T) {
	spec := touchSpec()
	pristine := *spec
	pristine.Phases = append([]Phase(nil), spec.Phases...)

	memo, ref := NewTask(spec, 3), NewTask(spec, 3)
	for round, seed := range []int64{3, 11} {
		if round > 0 {
			memo.Reset(seed)
			ref.Reset(seed)
		}
		got, gotPhases := driveTouches(memo, (*Task).Touches)
		want, wantPhases := driveTouches(ref, touchesRef)
		if !reflect.DeepEqual(gotPhases, wantPhases) {
			t.Fatalf("seed %d: phase sequences diverged", seed)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: Touches = %d, oracle %d", seed, i, got[i], want[i])
			}
		}
		// The schedule must actually exercise the memo: touches drawn,
		// and every phase (zero rate included) visited.
		total, seen := 0, map[int]bool{}
		for i := range want {
			total += want[i]
			seen[wantPhases[i]] = true
		}
		if total == 0 || len(seen) != len(spec.Phases) {
			t.Fatalf("seed %d: schedule drew %d touches over phases %v", seed, total, seen)
		}
	}
	if !reflect.DeepEqual(*spec, pristine) {
		t.Fatal("Touches mutated the shared Spec")
	}
}
