package fpacc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveAddK is the reference semantics: the literal sequential loop.
func naiveAddK(a, c float64, k int) float64 {
	for i := 0; i < k; i++ {
		a += c
	}
	return a
}

func checkAddK(t *testing.T, a, c float64, k int) {
	t.Helper()
	got := AddK(a, c, k)
	want := naiveAddK(a, c, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AddK(%v, %v, %d) = %v (%#x), want %v (%#x)",
			a, c, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestAddKRandomized sweeps random accumulator/increment magnitude
// pairs, including many binade crossings, against the naive loop.
func TestAddKRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed8))
	for trial := 0; trial < 5000; trial++ {
		// Magnitudes spanning ~60 decades so the ratio a/c covers
		// absorption, comparable-magnitude, and tiny-accumulator cases.
		a := math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		c := math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		k := rng.Intn(3000)
		checkAddK(t, a, c, k)
	}
}

// TestAddKTies constructs increments whose sub-ulp remainder is exactly
// half an ulp of the accumulator's binade, forcing round-to-nearest-even
// tie-breaking on every step — the hardest regime for the jump logic.
func TestAddKTies(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7135))
	for trial := 0; trial < 2000; trial++ {
		exp := rng.Intn(40) - 20
		u := math.Ldexp(1, exp-52) // ulp of binade [2^(exp-1), 2^exp)... close enough: pick a in it
		a := math.Ldexp(1, exp) * (1 + rng.Float64()) / 2
		// Recompute the true ulp of a.
		u = math.Nextafter(a, math.Inf(1)) - a
		m := float64(1 + rng.Intn(64))
		// c = m*u + u/2: exact tie each step while a stays in its binade.
		c := m*u + u/2
		k := rng.Intn(2000)
		checkAddK(t, a, c, k)
		// Also the even-mantissa-increment variant.
		checkAddK(t, a, (m*2)*u+u/2, k)
	}
}

// TestAddKEdgeCases pins the degenerate regimes.
func TestAddKEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		a, c float64
		k    int
	}{
		{0, 0, 5},
		{1, 0, 5},
		{math.Copysign(0, -1), 0, 3},           // -0 + 0 = +0, then stable
		{math.Copysign(0, -1), 1e-3, 10},       // leaves -0 on first add
		{0, 1, 0},                              // k = 0: unchanged
		{3.5, 1.25, 1},                         // k = 1
		{1, inf, 7},                            // +Inf absorbs
		{inf, 1, 7},                            // accumulator already +Inf
		{-inf, 1, 7},                           // -Inf + finite stays -Inf
		{inf, -inf, 4},                         // NaN after first add, absorbing
		{1, nan, 3},                            // NaN increment
		{nan, 1, 3},                            // NaN accumulator
		{1e308, 1e308, 10},                     // overflow to +Inf mid-run
		{-1e-3, -1e-5, 500},                    // negative regime (sign symmetry)
		{-0.0, -1e-5, 500},                     // negative regime from -0
		{5, -1e-3, 5000},                       // mixed sign: loop fallback
		{-5, 1e-3, 5000},                       // mixed sign: loop fallback
		{0, math.SmallestNonzeroFloat64, 4000}, // subnormal growth
		{1e-310, 3e-312, 4000},                 // subnormal accumulator
		{1e-310, math.SmallestNonzeroFloat64, 4000},
		{1, 0.25, 1000},                   // exact power-of-two-ish increment
		{1, 1.0 / 3.0, 1000},              // non-dyadic increment, many binades
		{1e16, 1, 1000},                   // increment exactly 1 ulp region
		{1e16, 0.4, 1000},                 // increment rounds below 1 ulp sometimes
		{9.007199254740992e15, 0.5, 2000}, // 2^53: exact half-ulp ties
	}
	for _, tc := range cases {
		checkAddK(t, tc.a, tc.c, tc.k)
	}
}

// TestAddKAbsorption verifies that once fl(a+c) == a, AddK stops in O(1)
// and matches the loop for arbitrarily large k.
func TestAddKAbsorption(t *testing.T) {
	a, c := 1e18, 1e-3 // absorbed immediately
	if got := AddK(a, c, 1<<40); got != a {
		t.Fatalf("absorbed AddK = %v, want %v", got, a)
	}
	// Absorption reached mid-run: growing accumulator eventually absorbs c.
	checkAddK(t, 1e12, 0.03, 100000)
}

// TestAddKLargeKExact checks a case where the closed form must cover
// millions of steps across several binades and still agree bit-for-bit
// with the loop.
func TestAddKLargeKExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-step reference loop")
	}
	cases := []struct {
		a, c float64
		k    int
	}{
		{0, 1e-4, 5_000_000},
		{0.1, 7.3e-6, 5_000_000},
		{123.456, 0.001953125, 3_000_000}, // dyadic increment
		{1e9, 0.9999999, 3_000_000},
	}
	for _, tc := range cases {
		checkAddK(t, tc.a, tc.c, tc.k)
	}
}

// TestAddKMatchesSimulatorAccumulators exercises the exact shapes the
// sim hot path feeds AddK: per-step energy (power*dt), busy-seconds,
// traffic bytes, and instruction counts over hour-scale step counts.
func TestAddKMatchesSimulatorAccumulators(t *testing.T) {
	shapes := []struct {
		name string
		a, c float64
	}{
		{"energy", 12.345, 1.8432e-3}, // ~1.8 W * 1 ms
		{"busy-sec", 900.0, 1e-3},     // dt accumulation
		{"traffic", 1.5e9, 1500.0},    // bytes per step
		{"instr", 2.75e11, 7.5e4},     // instructions per step
		{"samples", 3600.0, 0.001},    // monitor elapsed
	}
	for _, s := range shapes {
		for _, k := range []int{1, 2, 3, 17, 1000, 180000} {
			checkAddK(t, s.a, s.c, k)
		}
	}
}

// TestBinadeBitsMatchFrexp pins the bit-level exponent read against
// math.Frexp/Ldexp: binadeExp must equal Frexp's exponent and binadeTop
// must equal Ldexp(1, exp) at every class of input, or AddK's branch
// decisions would move.
func TestBinadeBitsMatchFrexp(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), // smallest, largest subnormal
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1), // MinNormal and neighbours
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for e := -1022; e <= 1023; e += 7 {
		p := math.Ldexp(1, e)
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), -p)
	}
	rng := rand.New(rand.NewSource(0xb17e))
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022))
	}
	for _, x := range xs {
		_, want := math.Frexp(x)
		if got := binadeExp(x); got != want {
			t.Fatalf("binadeExp(%g) = %d, want Frexp's %d", x, got, want)
		}
		top, wantTop := binadeTop(x), math.Ldexp(1, want)
		if math.Float64bits(top) != math.Float64bits(wantTop) {
			t.Fatalf("binadeTop(%g) = %g, want Ldexp's %g", x, top, wantTop)
		}
	}
}

// TestAddKAroundShortRun checks run lengths either side of the literal-
// loop crossover, with the accumulator a few steps below a binade top so
// the run crosses it, plainly and under round-to-nearest-even ties.
func TestAddKAroundShortRun(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5407))
	for trial := 0; trial < 500; trial++ {
		top := math.Ldexp(1, rng.Intn(80)-40)
		c := top * math.Ldexp(1+rng.Float64(), -8)
		u := math.Nextafter(top/2, top) - top/2 // ulp just below top
		tie := float64(1+rng.Intn(64))*u + u/2
		for _, k := range []int{shortRun - 1, shortRun, shortRun + 1} {
			checkAddK(t, top-c*float64(rng.Intn(k+1)), c, k)
			checkAddK(t, top-tie*float64(rng.Intn(k+1)), tie, k)
		}
	}
}

// FuzzAddK checks AddK bit for bit against the literal loop. Two NaNs
// compare equal whatever their payloads: which operand's payload an
// addition of two NaNs keeps depends on operand order, which the
// compiler may commute.
func FuzzAddK(f *testing.F) {
	f.Add(12.345, 1.8432e-3, 100)
	f.Add(9.007199254740992e15, 0.5, 2000)
	f.Add(1e-310, 3e-312, 400)
	f.Add(-1e-3, -1e-5, 500)
	f.Add(5.0, -1e-3, 30)
	f.Add(1e308, 1e308, 10)
	f.Fuzz(func(t *testing.T, a, c float64, k int) {
		k %= 1 << 14
		got, want := AddK(a, c, k), naiveAddK(a, c, k)
		if math.IsNaN(got) && math.IsNaN(want) {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddK(%v, %v, %d) = %v (%#x), want %v (%#x)",
				a, c, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// BenchmarkAddK times AddK against its two halves at span-typical run
// lengths (4, 24, 100 steps) and an idle-hour-scale one: closed-form is
// the probe-and-jump alone and naive the literal loop. shortRun sits
// where the two cross.
func BenchmarkAddK(b *testing.B) {
	const a, c = 12.345, 1.8432e-3
	for _, k := range []int{4, shortRun, 100, 180000} {
		b.Run(fmt.Sprintf("addk-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = AddK(a, c, k)
			}
		})
		b.Run(fmt.Sprintf("closed-form-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = addKPos(a, c, k)
			}
		})
		b.Run(fmt.Sprintf("naive-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = naiveAddK(a, c, k)
			}
		})
	}
}

var sink float64
