package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestQueryCostTaskSeconds pins the map-task duration that feeds
// sim.JobSpec.TaskSeconds: the record-reader time is the task setup plus
// each block's I/O and reader CPU; the full task adds the map function,
// the output write and, only for a multi-block split, a block switch per
// block.
func TestQueryCostTaskSeconds(t *testing.T) {
	c := queryCost{perBlockIO: 0.3, perBlockRRCPU: 0.05, perBlockMapCPU: 0.02, perBlockOut: 0.01}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }

	if got, want := c.rrSeconds(1), sim.TaskFixedSeconds+0.35; !near(got, want) {
		t.Errorf("rrSeconds(1) = %v, want %v", got, want)
	}
	if got, want := c.taskSeconds(1), sim.TaskFixedSeconds+0.38; !near(got, want) {
		t.Errorf("taskSeconds(1) = %v, want %v (no block switch for one block)", got, want)
	}
	want4 := sim.TaskFixedSeconds + 4*(0.38+sim.BlockOpenSeconds)
	if got := c.taskSeconds(4); !near(got, want4) {
		t.Errorf("taskSeconds(4) = %v, want %v", got, want4)
	}
	if got, want := c.rrSeconds(4), sim.TaskFixedSeconds+4*0.35; !near(got, want) {
		t.Errorf("rrSeconds(4) = %v, want %v (the reader time has no map, output or block-switch term)", got, want)
	}
}
