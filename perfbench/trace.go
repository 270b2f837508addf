package main

import (
	"time"

	"aspeo/internal/core"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
)

// This file is the outside-in timing layer. It attributes host time to
// the program's layers without touching program code: a runner
// decorator wraps every actor the wiring registers (governors, the perf
// tool, the controller) in a timing actor that keeps the actor's Name
// and Period, so the engine schedules exactly the same events, and a
// device decorator counts and times sysfs actuation while forwarding
// platform.BatchWriter, so the controller keeps its batched-write path.

// actorStat is one actor's tick count and summed tick wall time.
type actorStat struct {
	ticks int64
	ns    int64
}

// ledger accumulates one traced run's per-layer counters. It is used
// from the single goroutine that runs the cells.
type ledger struct {
	actors map[string]*actorStat // by actor name

	sysfsWrites int64
	sysfsNs     int64

	sessions    int64
	sessionNs   int64     // whole session: construction + run + summary
	runNs       int64     // Engine.Run alone
	constructMs []float64 // per-session construction wall time
	simS        float64   // simulated seconds run

	// replays holds each controller session's table and per-cycle
	// snapshots, replayed through the optimizer and Kalman filter after
	// the run to time those two stages on the run's own inputs.
	replays []cycleReplay
}

type cycleReplay struct {
	table *profile.Table
	cycle time.Duration // the controller's control cycle
	snaps []core.CycleSnapshot
}

func newLedger() *ledger { return &ledger{actors: map[string]*actorStat{}} }

func (l *ledger) actor(name string) *actorStat {
	st := l.actors[name]
	if st == nil {
		st = &actorStat{}
		l.actors[name] = st
	}
	return st
}

// tickNs sums tick wall time over every actor.
func (l *ledger) tickNs() (ns, ticks int64) {
	for _, st := range l.actors {
		ns += st.ns
		ticks += st.ticks
	}
	return ns, ticks
}

// instrument says how a cell's actors are wrapped. The zero value wraps
// nothing: the wiring registers straight onto the engine.
type instrument struct {
	// led, when non-nil, times every actor tick and sysfs write into it.
	led *ledger
	// spin busy-waits this long inside every actor tick. It exists for
	// the planted-regression test: a fixed slowdown that adds no actor
	// and leaves the event schedule alone.
	spin time.Duration
}

func (in instrument) active() bool { return in.led != nil || in.spin > 0 }

// runner wraps r so that every actor registered through it is
// instrumented; with nothing to instrument it returns r unchanged.
func (in instrument) runner(r platform.Runner) platform.Runner {
	if !in.active() {
		return r
	}
	dev := r.Device()
	if in.led != nil {
		// The simulator's phone, the only device the benchmark drives,
		// is a BatchWriter.
		dev = &timedDevice{Device: dev, batch: dev.(platform.BatchWriter), led: in.led}
	}
	return &timedRunner{Runner: r, dev: dev, in: in}
}

// timedRunner is a platform.Runner whose Register wraps each actor and
// whose Device is the (possibly timing) decorated device.
type timedRunner struct {
	platform.Runner
	dev platform.Device
	in  instrument
}

func (r *timedRunner) Device() platform.Device { return r.dev }

func (r *timedRunner) Register(a platform.Actor) error {
	t := &timedActor{inner: a, dev: r.dev, spin: r.in.spin}
	if r.in.led != nil {
		t.st = r.in.led.actor(a.Name())
	}
	return r.Runner.Register(t)
}

// timedActor forwards Name and Period unchanged (the engine classifies
// and schedules actors by them) and times Tick. The inner actor ticks
// against the decorated device so its sysfs writes are counted too.
type timedActor struct {
	inner platform.Actor
	dev   platform.Device
	st    *actorStat
	spin  time.Duration
}

func (a *timedActor) Name() string          { return a.inner.Name() }
func (a *timedActor) Period() time.Duration { return a.inner.Period() }

func (a *timedActor) Tick(now time.Duration, _ platform.Device) {
	t0 := time.Now()
	a.inner.Tick(now, a.dev)
	if a.spin > 0 {
		for s := time.Now(); time.Since(s) < a.spin; {
		}
	}
	if a.st != nil {
		a.st.ticks++
		a.st.ns += int64(time.Since(t0))
	}
}

// timedDevice counts and times userspace sysfs writes, batched or not.
type timedDevice struct {
	platform.Device
	batch platform.BatchWriter
	led   *ledger
}

func (d *timedDevice) WriteFile(path, value string) error {
	t0 := time.Now()
	err := d.Device.WriteFile(path, value)
	d.led.sysfsNs += int64(time.Since(t0))
	d.led.sysfsWrites++
	return err
}

func (d *timedDevice) WriteFiles(ws []platform.FileWrite) error {
	t0 := time.Now()
	err := d.batch.WriteFiles(ws)
	d.led.sysfsNs += int64(time.Since(t0))
	d.led.sysfsWrites += int64(len(ws))
	return err
}

var (
	_ platform.Runner      = (*timedRunner)(nil)
	_ platform.Actor       = (*timedActor)(nil)
	_ platform.BatchWriter = (*timedDevice)(nil)
)
