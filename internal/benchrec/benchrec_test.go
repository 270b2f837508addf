package benchrec

import (
	"path/filepath"
	"strings"
	"testing"
)

func record(calib float64, scenarios ...Scenario) *Record {
	r := New()
	r.CalibScore = calib
	r.Scenarios = scenarios
	return r
}

func scenario(name string, cyclesPerSec, simPerWall, allocs float64) Scenario {
	return Scenario{
		Name: name, Cycles: 100,
		CyclesPerSec: cyclesPerSec, SimPerWall: simPerWall,
		AllocsPerCycle: allocs,
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	in := record(42.5, scenario("ebook/BL", 1500, 7000, 0.2))
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.SchemaVersion != Schema || out.CalibScore != 42.5 {
		t.Fatalf("round trip lost header: %+v", out)
	}
	if len(out.Scenarios) != 1 || out.Scenarios[0] != in.Scenarios[0] {
		t.Fatalf("round trip lost scenarios: %+v", out.Scenarios)
	}
}

func TestCompareDetectsThroughputRegression(t *testing.T) {
	// A hot-path regression slows every scenario; the suite-level
	// geomean gate fires on both throughput metrics.
	base := record(10, scenario("a", 1000, 5000, 1), scenario("b", 2000, 9000, 1))
	cur := record(10, scenario("a", 800, 4000, 1), scenario("b", 1600, 7200, 1)) // 20% slower
	regs, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0].Scenario != "suite" || regs[1].Scenario != "suite" {
		t.Fatalf("regressions = %v", regs)
	}
	if regs[0].Metric != "cycles_per_sec(geomean,normalized)" ||
		regs[1].Metric != "sim_s_per_wall_s(geomean,normalized)" {
		t.Fatalf("regressions = %v", regs)
	}
}

// One scenario swinging on machine noise must not fail the suite: the
// geomean over many stable scenarios stays within tolerance.
func TestCompareToleratesSingleScenarioNoise(t *testing.T) {
	var bs, cs []Scenario
	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		bs = append(bs, scenario(name, 1000, 5000, 1))
		cs = append(cs, scenario(name, 1000, 5000, 1))
	}
	cs[3].CyclesPerSec = 700 // one scenario 30% slower (scheduler burst)
	cs[3].SimPerWall = 3500
	regs, err := Compare(record(10, bs...), record(10, cs...), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("single-scenario noise failed the suite: %v", regs)
	}
}

// A slower machine is not a regression: the calibration score scales
// with the raw throughput and the normalized values match.
func TestCompareNormalizesByMachineSpeed(t *testing.T) {
	base := record(10, scenario("s", 1000, 5000, 1))
	cur := record(5, scenario("s", 510, 2550, 1)) // half-speed machine, same code
	regs, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("machine-speed difference flagged as regression: %v", regs)
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	base := record(10, scenario("s", 1000, 5000, 0))
	cur := record(10, scenario("s", 1000, 5000, 1)) // 0 -> 1 alloc/cycle
	regs, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs_per_cycle" {
		t.Fatalf("regressions = %v", regs)
	}
	// Sub-slack wobble on a near-zero baseline passes.
	cur = record(10, scenario("s", 1000, 5000, 0.3))
	if regs, _ := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Fatalf("fractional alloc wobble flagged: %v", regs)
	}
}

func TestCompareMissingScenario(t *testing.T) {
	base := record(10, scenario("kept", 1000, 5000, 1), scenario("dropped", 1000, 5000, 1))
	cur := record(10, scenario("kept", 1000, 5000, 1))
	regs, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Scenario != "dropped" || regs[0].Metric != "present" {
		t.Fatalf("regressions = %v", regs)
	}
}

func TestCompareRefusesMismatchedRecords(t *testing.T) {
	base := record(10, scenario("s", 1000, 5000, 1))
	v2 := record(10, scenario("s", 1000, 5000, 1))
	v2.SchemaVersion = Schema + 1
	if _, err := Compare(base, v2, 0.10); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not refused: %v", err)
	}
	zero := record(0, scenario("s", 1000, 5000, 1))
	if _, err := Compare(base, zero, 0.10); err == nil || !strings.Contains(err.Error(), "calibration") {
		t.Fatalf("zero calibration not refused: %v", err)
	}
}

func TestCalibratePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration kernel takes ~100ms")
	}
	if s := Calibrate(); s <= 0 {
		t.Fatalf("calibration score %v", s)
	}
}
