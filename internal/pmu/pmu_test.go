package pmu

import "testing"

func TestAddAndRead(t *testing.T) {
	p := New()
	p.Add(Instructions, 100)
	p.Add(Instructions, 50)
	p.Add(Cycles, 300)
	if got := p.Read(Instructions); got != 150 {
		t.Fatalf("Instructions = %v", got)
	}
	if got := p.Read(Cycles); got != 300 {
		t.Fatalf("Cycles = %v", got)
	}
	if got := p.Read(BusAccessBytes); got != 0 {
		t.Fatalf("BusAccessBytes = %v", got)
	}
}

func TestNegativeAndZeroDeltasIgnored(t *testing.T) {
	p := New()
	p.Add(Instructions, -5)
	p.Add(Instructions, 0)
	if got := p.Read(Instructions); got != 0 {
		t.Fatalf("counter moved on non-positive delta: %v", got)
	}
}

func TestInvalidCounter(t *testing.T) {
	p := New()
	p.Add(Counter(99), 5)
	if got := p.Read(Counter(99)); got != 0 {
		t.Fatalf("invalid counter read = %v", got)
	}
	if got := p.Read(Counter(-1)); got != 0 {
		t.Fatalf("invalid counter read = %v", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	p := New()
	p.Add(Instructions, 1000)
	s1 := p.Snapshot()
	p.Add(Instructions, 234)
	p.Add(BusAccessBytes, 42)
	s2 := p.Snapshot()
	if got := s2.Delta(s1, Instructions); got != 234 {
		t.Fatalf("delta = %v, want 234", got)
	}
	if got := s2.Delta(s1, BusAccessBytes); got != 42 {
		t.Fatalf("bus delta = %v, want 42", got)
	}
	if got := s2.Delta(s1, Counter(77)); got != 0 {
		t.Fatalf("invalid counter delta = %v", got)
	}
}

func TestCounterNames(t *testing.T) {
	if Instructions.String() != "instructions" || Cycles.String() != "cycles" {
		t.Fatal("counter names wrong")
	}
	if BusAccessBytes.String() != "bus-access-bytes" {
		t.Fatal("bus counter name wrong")
	}
	if Counter(42).String() != "unknown" {
		t.Fatal("unknown counter name wrong")
	}
}

// TestOwnerAddSnapshotSumsExactly pins the counter invariants under the
// single-owner contract: the owning goroutine interleaves counter
// movement with the snapshots the perf tool takes, and every increment
// is accounted for exactly — the snapshot deltas telescope to the final
// count, and no snapshot ever runs backwards.
func TestOwnerAddSnapshotSumsExactly(t *testing.T) {
	p := New()
	prev := p.Snapshot()
	var deltas float64
	for i := 0; i < 4000; i++ {
		p.Add(Instructions, 1)
		if i%3 == 0 {
			p.AddSpan(Cycles, 2, 3)
		}
		if i%7 == 0 {
			cur := p.Snapshot()
			d := cur.Delta(prev, Instructions)
			if d < 0 || cur.Delta(prev, Cycles) < 0 {
				t.Fatalf("snapshot %d ran backwards", i)
			}
			deltas += d
			prev = cur
		}
	}
	deltas += p.Snapshot().Delta(prev, Instructions)
	if got := p.Read(Instructions); got != 4000 || deltas != 4000 {
		t.Fatalf("Instructions = %v, summed deltas = %v, want 4000", got, deltas)
	}
	if got := p.Read(Cycles); got != 1334*6 {
		t.Fatalf("Cycles = %v, want %v", got, 1334*6)
	}
}
