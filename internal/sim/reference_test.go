package sim

import "time"

// runReference is the test-only reference loop the event core is held
// to: the original fixed-timestep engine. It walks the same loop-top
// boundaries as runEvent — foreground-done check, interrupt poll,
// checkpoint hook, due actors ticked in registration order — but scans
// the actor list for the next deadline instead of keeping a queue, and
// advances the device with one Phone.Step per step instead of StepSpan's
// closed-form spans. Every fast path (the event queue, plan replay,
// fpacc.AddK, AdvanceSpan, AddSpan, ObserveSpan) is absent here, so a
// run on Engine.Run that matches it bit for bit proves them all exact.
func (e *Engine) runReference(until time.Duration, stopWhenFGDone bool) Stats {
	ph := e.phone
	cur := e.begin(until, stopWhenFGDone)
	e.cursor = cur

	for ph.Now() < cur.Deadline {
		if stopWhenFGDone && ph.FGDone() {
			break
		}
		if e.interrupt != nil && e.interrupt() {
			break
		}
		if e.ckptHook != nil {
			e.ckptHook()
		}
		now := ph.Now()
		next := cur.Deadline
		for i := range e.actors {
			if now >= e.actors[i].next {
				e.actors[i].actor.Tick(now, ph)
				e.actors[i].next = now + e.actors[i].actor.Period()
			}
			if e.actors[i].next < next {
				next = e.actors[i].next
			}
		}
		n := int((next - now) / DefaultStep)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			ph.Step(DefaultStep)
			if stopWhenFGDone && ph.FGDone() {
				break
			}
		}
	}
	return e.finishRun(cur)
}
