package workload

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/perfmodel"
)

func testTraits() perfmodel.Traits {
	return perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1}
}

// pacedSpec returns a one-phase paced spec with the given jitter.
func pacedSpec(sigma float64) *Spec {
	return &Spec{
		Name: "span-paced",
		Phases: []Phase{{
			Name:         "p",
			Kind:         Paced,
			Traits:       testTraits(),
			Duration:     5 * time.Second,
			DemandGIPS:   0.075,
			DemandJitter: sigma,
			JitterPeriod: 60 * time.Millisecond,
		}},
		Loop:   true,
		RunFor: 100 * time.Second,
	}
}

func batchSpec(window time.Duration) *Spec {
	return &Spec{
		Name: "span-batch",
		Phases: []Phase{{
			Name:        "b",
			Kind:        Batch,
			Traits:      testTraits(),
			Duration:    window,
			InstrBudget: 4.5e8,
		}},
		Loop:   true,
		RunFor: 100 * time.Second,
	}
}

// advanceSteps is the literal per-step loop AdvanceSpan must reproduce.
func advanceSteps(t *Task, executed float64, dt time.Duration, n int) {
	for i := 0; i < n; i++ {
		t.Advance(executed, dt)
	}
}

// jitterCap is the bound a paced phase gets without the σ = 0
// relaxation: the steps up to (and including) the next jitter resample.
func jitterCap(t *Task, dt time.Duration) int {
	return ceilSteps(t.jitterUntil-t.now, dt)
}

// taskStateEqual compares every observable field of two tasks, optionally
// ignoring the jitter resample bookkeeping (which SpanBound is allowed to
// leave stale when σ = 0).
func taskStateEqual(t *testing.T, a, b *Task, ignoreJitterClock bool) {
	t.Helper()
	type cmp struct {
		name string
		x, y float64
	}
	checks := []cmp{
		{"phaseExec", a.phaseExec, b.phaseExec},
		{"totalExec", a.totalExec, b.totalExec},
		{"backlog", a.backlog, b.backlog},
		{"dropped", a.dropped, b.dropped},
		{"jitterMul", a.jitterMul, b.jitterMul},
	}
	for _, c := range checks {
		if math.Float64bits(c.x) != math.Float64bits(c.y) {
			t.Fatalf("%s mismatch: %v (%#x) vs %v (%#x)", c.name, c.x, math.Float64bits(c.x), c.y, math.Float64bits(c.y))
		}
	}
	if a.now != b.now || a.phaseElapsed != b.phaseElapsed || a.phaseIdx != b.phaseIdx ||
		a.loopsDone != b.loopsDone || a.done != b.done {
		t.Fatalf("clock/phase state mismatch: %+v vs %+v", a, b)
	}
	if !ignoreJitterClock && a.jitterUntil != b.jitterUntil {
		t.Fatalf("jitterUntil mismatch: %v vs %v", a.jitterUntil, b.jitterUntil)
	}
}

// TestAdvanceSpanBitIdentity drives AdvanceSpan against per-step
// Advance on the telescoping regimes (batch, windowed batch, served
// paced) and the fallback regime (starved paced with a draining
// backlog).
func TestAdvanceSpanBitIdentity(t *testing.T) {
	dt := time.Millisecond
	cases := []struct {
		name string
		spec *Spec
		exec func(Demand) float64 // per-step executed instructions
		n    int
	}{
		{"batch-starved", batchSpec(0), func(Demand) float64 { return 7.5e4 }, 1000},
		{"windowed-batch-idle", batchSpec(4 * time.Second), func(Demand) float64 { return 0 }, 3999},
		{"paced-served", pacedSpec(0), func(d Demand) float64 { return d.WantedInstr }, 4999},
		{"paced-starved", pacedSpec(0), func(Demand) float64 { return 1e4 }, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := NewTask(tc.spec, 42)
			fast := NewTask(tc.spec, 42)
			// Prime both with one slow step so jitter state initializes
			// identically, mirroring how the engine captures a plan.
			e0 := tc.exec(ref.Demand(dt))
			_ = fast.Demand(dt)
			ref.Advance(e0, dt)
			fast.Advance(e0, dt)
			advanceSteps(ref, e0, dt, tc.n)
			fast.AdvanceSpan(e0, dt, tc.n)
			taskStateEqual(t, ref, fast, false)
		})
	}
}

// TestSpanBoundRelaxesZeroJitter: with σ = 0 a served paced phase's span
// bound must reach the phase boundary instead of stopping at the jitter
// resample, and replaying that whole span must leave every observable
// identical to per-step execution (the jitter clock alone may go stale).
func TestSpanBoundRelaxesZeroJitter(t *testing.T) {
	dt := time.Millisecond
	spec := pacedSpec(0)
	mk := func() (*Task, StepPlan, float64) {
		tk := NewTask(spec, 7)
		want := tk.Demand(dt).WantedInstr
		tk.Advance(want, dt)
		return tk, StepPlan{Exec: want, MaxInstr: 1e9, Served: true, PhaseIdx: 0}, want
	}
	ref, sp, want := mk()
	if jc := jitterCap(ref, dt); jc != 60-1 {
		t.Fatalf("jitter cap = %d, want 59 (60 ms jitter period)", jc)
	}
	sb := ref.SpanBound(sp, dt, math.MaxInt32)
	if wantBound := ceilSteps(spec.Phases[0].Duration-ref.phaseElapsed, dt); sb != wantBound {
		t.Fatalf("SpanBound = %d, want %d (phase boundary)", sb, wantBound)
	}
	// Replay the full relaxed span in one call vs. stepwise.
	fast, _, _ := mk()
	advanceSteps(ref, want, dt, sb)
	fast.AdvanceSpan(want, dt, sb)
	taskStateEqual(t, ref, fast, true)
	if ref.phaseElapsed != fast.phaseElapsed {
		t.Fatalf("span must cross the phase boundary identically")
	}

	// σ > 0 must keep the jitter cap even under SpanBound.
	jt := NewTask(pacedSpec(1.0), 7)
	w := jt.Demand(dt).WantedInstr
	jt.Advance(w, dt)
	jsp := StepPlan{Exec: w, MaxInstr: 1e9, Served: true, PhaseIdx: 0}
	if got, want := jt.SpanBound(jsp, dt, math.MaxInt32), jitterCap(jt, dt); got != want {
		t.Fatalf("σ>0 SpanBound = %d, want the jitter cap %d", got, want)
	}

	// A stale non-1 multiplier (entering a σ=0 phase mid-jitter-window)
	// must not be granted the relaxation. A served step that executes
	// less than the stale demand is not steady, so no span at all.
	st := NewTask(spec, 7)
	_ = st.Demand(dt)
	st.Advance(0, dt)
	st.jitterMul = 1.37
	ssp := StepPlan{Exec: 0, MaxInstr: 1e9, Served: true, PhaseIdx: 0}
	if got := st.SpanBound(ssp, dt, math.MaxInt32); got != 0 {
		t.Fatalf("stale-multiplier unsteady SpanBound = %d, want 0", got)
	}
	// Steadily served at the stale demand (empty backlog, Exec equal to
	// the per-step want): the span is capped at the jitter resample.
	ss := NewTask(spec, 7)
	ss.Advance(ss.Demand(dt).WantedInstr, dt)
	ss.jitterMul = 1.37
	stale := spec.Phases[0].DemandGIPS * 1e9 * dt.Seconds() * ss.jitterMul
	ssp = StepPlan{Exec: stale, MaxInstr: 1e9, Served: true, PhaseIdx: 0}
	if got, want := ss.SpanBound(ssp, dt, math.MaxInt32), jitterCap(ss, dt); got != want || want <= 0 {
		t.Fatalf("stale-multiplier steady SpanBound = %d, want the jitter cap %d", got, want)
	}
}

// drainingTask runs a paced task the way the engine would into the
// draining-backlog regime: it starves for `starve` steps at a tenth of
// its demand, building a backlog, then takes one slow step clamped at a
// capacity above the per-step demand. It returns the task and the plan
// that step captured.
func drainingTask(t *testing.T, spec *Spec, starve int, dt time.Duration) (*Task, StepPlan) {
	t.Helper()
	tk := NewTask(spec, 11)
	for i := 0; i < starve; i++ {
		tk.Demand(dt)
		tk.Advance(0.1*pacedWant(tk, dt), dt)
	}
	d := tk.Demand(dt)
	m := 1.17 * pacedWant(tk, dt)
	if !(d.WantedInstr > m) {
		t.Fatalf("draining step not clamped: wanted %v at capacity %v", d.WantedInstr, m)
	}
	tk.Advance(m, dt)
	return tk, StepPlan{Exec: m, MaxInstr: m, Served: false, PhaseIdx: tk.phaseIdx}
}

// pacedWant is the current paced phase's per-step demand without the
// backlog, computed as Demand and Advance compute it.
func pacedWant(t *Task, dt time.Duration) float64 {
	return t.Spec.Phases[t.phaseIdx].DemandGIPS * 1e9 * dt.Seconds() * t.jitterMul
}

// literalClamped steps a literal Demand/Advance loop at capacity m for
// at most max steps and returns how many leading steps stayed clamped:
// min(WantedInstr, m) == m and not served.
func literalClamped(tk *Task, m float64, dt time.Duration, max int) int {
	n := 0
	for ; n < max; n++ {
		if d := tk.Demand(dt); !(math.Min(d.WantedInstr, m) == m && d.WantedInstr != m) {
			break
		}
		tk.Advance(m, dt)
	}
	return n
}

// TestSpanBoundPacedDraining: a starved paced task whose demand alone
// fits its capacity drains its backlog at exactly MaxInstr per step.
// SpanBound must count exactly the steps a literal loop keeps clamped,
// cut only by the first served step, the jitter deadline, the phase end
// or the caller's limit, and replaying the bound through AdvanceSpan
// must match per-step Advance bit for bit.
func TestSpanBoundPacedDraining(t *testing.T) {
	dt := time.Millisecond
	short := pacedSpec(0.3)
	short.Phases[0].Duration = 30 * time.Millisecond
	short.Phases[0].JitterPeriod = 200 * time.Millisecond
	cases := []struct {
		name   string
		spec   *Spec
		starve int
		limit  int
		cut    string
	}{
		{"drained", pacedSpec(0.3), 3, math.MaxInt32, "served"},
		{"drained-no-jitter", pacedSpec(0), 5, math.MaxInt32, "served"},
		{"jitter-deadline", pacedSpec(0.3), 20, math.MaxInt32, "jitter"},
		{"phase-end", short, 20, math.MaxInt32, "phase"},
		{"caller-limit", pacedSpec(0.3), 20, 7, "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tk, sp := drainingTask(t, tc.spec, tc.starve, dt)
			jc := jitterCap(tk, dt)
			pc := ceilSteps(tk.Phase().Duration-tk.phaseElapsed, dt)
			sb := tk.SpanBound(sp, dt, tc.limit)
			if sb <= 0 {
				t.Fatalf("SpanBound = %d, want a draining span", sb)
			}
			ref, _ := drainingTask(t, tc.spec, tc.starve, dt)
			if n := literalClamped(ref, sp.MaxInstr, dt, min(jc, pc, tc.limit)); n != sb {
				t.Fatalf("SpanBound = %d, literal loop stays clamped for %d steps", sb, n)
			}
			// What cut the span, and what the step after it would do.
			after, _ := drainingTask(t, tc.spec, tc.starve, dt)
			advanceSteps(after, sp.Exec, dt, sb)
			clampedNext := pacedWant(after, dt)+after.backlog > sp.MaxInstr
			switch tc.cut {
			case "served":
				if clampedNext {
					t.Fatalf("step %d after the bound is still clamped", sb)
				}
			case "jitter":
				if sb != jc || !clampedNext {
					t.Fatalf("SpanBound = %d (next clamped %v), want the jitter cap %d with the drain still running", sb, clampedNext, jc)
				}
			case "phase":
				if sb != pc || after.loopsDone != 1 || after.phaseElapsed != 0 {
					t.Fatalf("SpanBound = %d, want the phase end %d crossed on its last step", sb, pc)
				}
			case "limit":
				if sb != tc.limit || !clampedNext {
					t.Fatalf("SpanBound = %d (next clamped %v), want the caller's limit %d with the drain still running", sb, clampedNext, tc.limit)
				}
			}
			fast, _ := drainingTask(t, tc.spec, tc.starve, dt)
			fast.AdvanceSpan(sp.Exec, dt, sb)
			taskStateEqual(t, after, fast, false)
		})
	}
}

// TestSpanBoundBatchMarginUnderLimit: a caller's limit only ever
// shortens a starved batch span; the two-step margin from the budget
// boundary holds whatever the limit.
func TestSpanBoundBatchMarginUnderLimit(t *testing.T) {
	dt := time.Millisecond
	tk := NewTask(batchSpec(0), 5)
	const m = 7.5e4
	tk.Demand(dt)
	tk.Advance(m, dt)
	sp := StepPlan{Exec: m, MaxInstr: m, PhaseIdx: 0}
	free := tk.SpanBound(sp, dt, math.MaxInt32)
	if free <= 2 {
		t.Fatalf("unlimited SpanBound = %d, want a long starved span", free)
	}
	for limit := free - 2; limit <= free+2; limit++ {
		if got, want := tk.SpanBound(sp, dt, limit), min(limit, free); got != want {
			t.Fatalf("SpanBound(limit %d) = %d, want %d (unlimited bound %d)", limit, got, want, free)
		}
	}
}
