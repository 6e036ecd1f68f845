package experiments

import (
	"strings"
	"testing"
)

// TestExpLifecycle is the issue's acceptance experiment: the workload
// shifts from column A to column B under one fixed budget, and the
// lifecycle manager's evictions let column B converge to ≥90% index
// scans — the trajectory that was BudgetDenied forever before eviction.
// Equivalence, generation-bump and budget gates live inside ExpLifecycle
// itself (it errors out on any violation); the test pins the shape of the
// reported trajectory.
func TestExpLifecycle(t *testing.T) {
	r := quickRunner()
	rep, err := r.ExpLifecycle(UserVisits, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*5 + 1; len(rep.Jobs) != want {
		t.Fatalf("got %d jobs, want %d (two phases + the convergence probe)", len(rep.Jobs), want)
	}
	if rep.FinalFractionB < LifecycleConvergenceTarget {
		t.Errorf("final column-B coverage %.2f, want ≥ %.2f", rep.FinalFractionB, LifecycleConvergenceTarget)
	}
	if rep.TotalEvicted == 0 {
		t.Error("no evictions — the budget was never binding")
	}
	for _, j := range rep.Jobs {
		switch j.Phase {
		case "colA":
			if j.Evicted != 0 {
				t.Errorf("colA job %d evicted %d replicas; phase A fits the budget by construction", j.Job, j.Evicted)
			}
			if j.Column != rep.ColumnA {
				t.Errorf("colA job %d ran on column %d, want %d", j.Job, j.Column, rep.ColumnA)
			}
		case "colB":
			if j.Column != rep.ColumnB {
				t.Errorf("colB job %d ran on column %d, want %d", j.Job, j.Column, rep.ColumnB)
			}
			if j.BudgetDenied != 0 {
				t.Errorf("colB job %d had %d denials despite eviction", j.Job, j.BudgetDenied)
			}
		default:
			t.Errorf("job %d has unknown phase %q", j.Job, j.Phase)
		}
		if j.ExtraBytes > rep.BudgetBytes*2 {
			t.Errorf("job %d extra bytes %d far exceed budget %d", j.Job, j.ExtraBytes, rep.BudgetBytes)
		}
	}
	// Phase A converged too (same budget, no pressure yet).
	lastA := rep.Jobs[4]
	if lastA.IndexScanFraction < LifecycleConvergenceTarget {
		t.Errorf("phase A ended at %.2f coverage, want ≥ %.2f", lastA.IndexScanFraction, LifecycleConvergenceTarget)
	}
	for _, want := range []string{"FigLifecycle", "workload shift", "evicted", "BudgetDenied forever"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report misses %q:\n%s", want, rep.String())
		}
	}
}

// TestExpLifecycleSynthetic runs the same trajectory on the 19-attribute
// workload — the shift is attr10 → attr9, both never indexed statically.
func TestExpLifecycleSynthetic(t *testing.T) {
	rep, err := quickRunner().ExpLifecycle(Synthetic, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalFractionB < LifecycleConvergenceTarget || rep.TotalEvicted == 0 {
		t.Errorf("Synthetic shift did not converge with evictions: frac %.2f, evicted %d",
			rep.FinalFractionB, rep.TotalEvicted)
	}
}

// TestExpCachePacked is the ROADMAP's -pack-scans mode for the cache
// trajectory: same cold/hot/invalidate sequence, but the dispatched task
// count drops to the per-node split count and the hot job answers every
// block of every packed split from the cache.
func TestExpCachePacked(t *testing.T) {
	rep, err := quickRunner().ExpCache(UserVisits, 4, 0, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PackScans {
		t.Fatal("report does not record PackScans")
	}
	cold, hot := rep.Jobs[0], rep.Jobs[1]
	if hot.HitRate < 1.0 {
		t.Errorf("packed hot job hit only %.0f%% of blocks", 100*hot.HitRate)
	}
	// The dispatch bound falls: tasks are a function of cluster size, not
	// block count.
	if hot.Tasks*4 > rep.TotalBlocks {
		t.Errorf("packed hot job dispatched %d tasks for %d blocks, want ≥4x fewer", hot.Tasks, rep.TotalBlocks)
	}
	if cold.Tasks != hot.Tasks {
		t.Errorf("cold/hot task counts diverged (%d vs %d) on an unchanged topology", cold.Tasks, hot.Tasks)
	}
	// The figure carries the packed mode's tasks series.
	fig := rep.Figure()
	found := false
	for _, s := range fig.Series {
		if s.Label == "tasks" {
			found = true
		}
	}
	if !found {
		t.Error("packed figure has no tasks series")
	}
}
