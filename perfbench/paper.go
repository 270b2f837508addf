package main

import (
	"fmt"
	"math"

	"aspeo/internal/experiment"
	"aspeo/internal/workload"
)

// table3 is the paper's Table III (controller vs default governors at
// baseline load), as EXPERIMENTS.md quotes it: the performance delta
// (positive = the controller performed better; deadline-critical apps
// compare execution time) and the energy savings, both in percent.
var table3 = map[string]struct{ perf, energy float64 }{
	workload.NameVidCon:      {-0.4, 25.3},
	workload.NameMobileBench: {+4.1, 15.3},
	workload.NameAngryBirds:  {+0.6, 14.9},
	workload.NameWeChat:      {-0.4, 27.2},
	workload.NameMXPlayer:    {0.0, 4.2},
	workload.NameSpotify:     {+9.3, 31.6},
}

// paperSeeds is how many seeds each side of a paper-check cell runs;
// like the paper's protocol, the comparison uses their means.
const paperSeeds = 3

// paperErr runs the Table III protocol at baseline load for the six
// evaluated apps through the program's own path, experiment.Config.
// Evaluate (paperSeeds default and controller sessions per app, seeded
// from the run's seed), and returns the mean absolute error, in
// percentage points, of its perf-delta and energy-savings columns
// against the paper. The value is simulated: it depends on the seed and
// the model, never on host speed. preps supplies the apps' BL
// controller inputs; missing ones are prepared here.
func paperErr(seed int64, preps map[string]prep) (float64, error) {
	var sum float64
	for _, app := range workload.Evaluated() {
		s := cellSeed(seed, app.Name, workload.BaselineLoad)
		p, ok := preps[app.Name]
		if !ok {
			var err error
			if p, err = prepare(app, workload.BaselineLoad, s, nil); err != nil {
				return 0, err
			}
		}
		exp := experiment.Quick()
		exp.Seeds = nil
		for k := 0; k < paperSeeds; k++ {
			exp.Seeds = append(exp.Seeds, derive(s, fmt.Sprintf("paper/%d", k)))
		}
		row, err := exp.Evaluate(app, p.table, p.target, workload.BaselineLoad, false)
		if err != nil {
			return 0, fmt.Errorf("paper check %s: %w", app.Name, err)
		}
		ref := table3[app.Name]
		sum += math.Abs(row.PerfDeltaPct-ref.perf) + math.Abs(row.EnergySavingsPct-ref.energy)
	}
	return sum / float64(2*len(table3)), nil
}
