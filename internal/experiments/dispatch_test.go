package experiments

import (
	"strings"
	"testing"
)

// TestExpDispatch runs the packed-vs-unpacked dispatch experiment on
// quick fixtures. The acceptance gates — ≥4x task reduction on both the
// adaptive-job-1 and cache-hot scenarios and a mid-job node kill that
// re-resolves only the affected blocks — are enforced inside ExpDispatch
// itself; the test additionally pins the report's invariants.
func TestExpDispatch(t *testing.T) {
	r := NewQuickRunner()
	rep, err := r.ExpDispatch(UserVisits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("scenarios = %d, want 2", len(rep.Scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.TaskReduction < 4 {
			t.Errorf("%s: task reduction %.1fx < 4x", sc.Name, sc.TaskReduction)
		}
		if sc.Packed.Rows != sc.Unpacked.Rows {
			t.Errorf("%s: packed returned %d rows, unpacked %d", sc.Name, sc.Packed.Rows, sc.Unpacked.Rows)
		}
		if sc.Unpacked.Tasks != rep.TotalBlocks {
			t.Errorf("%s: unpacked dispatched %d tasks, want one per block (%d)",
				sc.Name, sc.Unpacked.Tasks, rep.TotalBlocks)
		}
		if sc.Packed.Tasks > rep.Nodes*rep.SplitsPerNode {
			t.Errorf("%s: packed dispatched %d tasks, want ≤ %d",
				sc.Name, sc.Packed.Tasks, rep.Nodes*rep.SplitsPerNode)
		}
	}
	hot := rep.Scenarios[1]
	if hot.Packed.HitBlocks != hot.Packed.Blocks {
		t.Errorf("cache-hot packed: %d/%d blocks from cache", hot.Packed.HitBlocks, hot.Packed.Blocks)
	}
	fo := rep.Failover
	if fo.TasksRepacked == 0 {
		t.Error("failover: no task was repacked after the node kill")
	}
	if fo.BlocksRerun > fo.VictimBlocks {
		t.Errorf("failover: %d blocks rerun, victim held only %d", fo.BlocksRerun, fo.VictimBlocks)
	}
	if rep.SplitPhaseNameNodeOps == 0 {
		t.Error("split phase reported zero namenode directory ops")
	}
	s := rep.String()
	for _, want := range []string{"FigDispatch", "adaptive-job1", "cache-hot", "failover:", "namenode directory ops"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
