package experiments

import (
	"math"
	"testing"
)

// tinyAdaptiveRunner is sized so the adaptive convergence suite stays in
// the -short CI lane: 8 blocks of 1,000 rows upload in well under a
// second while exercising every adaptive code path.
func tinyAdaptiveRunner() *Runner {
	r := NewQuickRunner()
	r.Rows = 8_000
	r.BlockRows = 1_000
	return r
}

// TestAdaptiveConvergence is the acceptance property of the adaptive
// subsystem: on a filter column no replica is indexed on, the fraction of
// index-scan splits rises monotonically to 1.0 over a sequence of
// identical jobs, simulated runtime is non-increasing from job 2 on, and
// job 1's overhead stays within the offer-rate bound. Then the workload
// shifts to a second column under the same budget, and evictions let it
// converge too. Equivalence, generation-bump and budget gates live inside
// ExpAdaptive itself (it errors out on any violation); the test pins the
// shape of both trajectories.
func TestAdaptiveConvergence(t *testing.T) {
	const offerRate = 0.5
	r := tinyAdaptiveRunner()
	rep, err := r.ExpAdaptive(UserVisits, 8, offerRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 8 {
		t.Fatalf("got %d jobs, want 8", len(rep.Jobs))
	}

	// Job 1 starts from zero coverage; the fraction rises monotonically
	// (strictly, until converged) and reaches exactly 1.0.
	if rep.Jobs[0].IndexScanFraction != 0 {
		t.Errorf("job 1 index-scan fraction = %f, want 0", rep.Jobs[0].IndexScanFraction)
	}
	converged := false
	for i := 1; i < len(rep.Jobs); i++ {
		prev, cur := rep.Jobs[i-1].IndexScanFraction, rep.Jobs[i].IndexScanFraction
		if cur < prev {
			t.Fatalf("job %d fraction %f < job %d fraction %f", i+1, cur, i, prev)
		}
		if !converged && cur <= prev {
			t.Fatalf("job %d made no coverage progress before convergence (%f)", i+1, cur)
		}
		if cur == 1.0 {
			converged = true
		}
	}
	if !converged {
		t.Fatal("index-scan fraction never reached 1.0")
	}
	last := rep.Jobs[len(rep.Jobs)-1]
	if last.IndexScanFraction != 1.0 || last.BlocksBuilt != 0 || last.BuildSeconds != 0 {
		t.Errorf("converged job = %+v, want full coverage and no build work", last)
	}

	// Simulated runtime: job k+1 ≤ job k for every k ≥ 1, and the
	// converged jobs beat the scan baseline.
	for i := 2; i < len(rep.Jobs); i++ {
		if rep.Jobs[i].Seconds > rep.Jobs[i-1].Seconds+1e-9 {
			t.Errorf("job %d runtime %.3f s > job %d runtime %.3f s",
				i+1, rep.Jobs[i].Seconds, i, rep.Jobs[i-1].Seconds)
		}
	}
	if last.Seconds >= rep.BaselineSeconds {
		t.Errorf("converged runtime %.3f s not below scan baseline %.3f s",
			last.Seconds, rep.BaselineSeconds)
	}

	// Job 1's overhead over the pure scan is exactly its build surcharge
	// and must stay within the offer-rate bound (+ one block of ceil
	// slack).
	overhead := rep.Jobs[0].Seconds - rep.BaselineSeconds
	if overhead <= 0 {
		t.Errorf("job 1 paid no adaptive overhead (%.6f s)", overhead)
	}
	bound := rep.FullBuildSeconds * (offerRate + 1.0/float64(rep.TotalBlocks))
	if overhead > bound+1e-9 {
		t.Errorf("job 1 overhead %.3f s exceeds offer-rate bound %.3f s", overhead, bound)
	}

	// Exactly ceil(rate × missing) blocks were built per job, and in
	// total every block was converted once.
	total := 0
	missing := rep.TotalBlocks
	for i, j := range rep.Jobs {
		want := int(math.Ceil(offerRate * float64(missing)))
		if j.BlocksBuilt != want {
			t.Errorf("job %d built %d blocks, want ceil(%.2f×%d) = %d", i+1, j.BlocksBuilt, offerRate, missing, want)
		}
		total += j.BlocksBuilt
		missing -= j.BlocksBuilt
	}
	if total != rep.TotalBlocks {
		t.Errorf("built %d blocks in total, want %d", total, rep.TotalBlocks)
	}

	// Result correctness: every job returned the same real rows.
	for i, j := range rep.Jobs {
		if j.Rows != rep.Jobs[0].Rows {
			t.Errorf("job %d returned %d rows, job 1 returned %d", i+1, j.Rows, rep.Jobs[0].Rows)
		}
	}
	if rep.Jobs[0].Rows == 0 {
		t.Error("adaptive query selected no rows")
	}

	checkShift(t, rep)
}

// checkShift pins the shape of phase B: one job more than phase A on the
// second column, none denied, extra bytes near the budget, converged to
// full coverage, paid for by evicting phase A's replicas — which phase A
// itself never needed.
func checkShift(t *testing.T, rep *AdaptiveReport) {
	t.Helper()
	n := len(rep.Jobs)
	if len(rep.Shift) != n+1 {
		t.Fatalf("got %d shift jobs, want %d (phase A's count + the landing probe)", len(rep.Shift), n+1)
	}
	evicted := 0
	for _, j := range rep.Jobs {
		if j.Evicted != 0 || j.Column != rep.ColumnA {
			t.Errorf("phase A job %d = %+v; it runs on column %d and fits the budget by construction", j.Job, j, rep.ColumnA)
		}
	}
	for _, j := range rep.Shift {
		if j.Column != rep.ColumnB || j.BudgetDenied != 0 || j.Rows != rep.Shift[0].Rows {
			t.Errorf("shift job %d = %+v, want column %d, no denials, %d rows", j.Job, j, rep.ColumnB, rep.Shift[0].Rows)
		}
		if j.ExtraBytes > rep.BudgetBytes*2 {
			t.Errorf("shift job %d extra bytes %d far exceed budget %d", j.Job, j.ExtraBytes, rep.BudgetBytes)
		}
		evicted += j.Evicted
	}
	if evicted == 0 {
		t.Error("no evictions — the budget was never binding")
	}
	if landed := rep.Shift[n]; landed.IndexScanFraction != 1.0 || landed.Job != 2*n+1 {
		t.Errorf("landing probe = %+v, want job %d at full coverage", landed, 2*n+1)
	}
}

// TestExpLifecycle runs the replica lifecycle on the quick fixture at the
// (jobs, rate) the CI lane uses: the workload shifts from column A to
// column B under one fixed budget, and evictions let column B converge —
// the trajectory that was BudgetDenied forever before eviction.
// Equivalence, generation-bump and budget gates live inside ExpAdaptive
// itself (it errors out on any violation); the test pins the shape of the
// reported trajectory and its printout.
func TestExpLifecycle(t *testing.T) {
	rep, err := quickRunner().ExpAdaptive(UserVisits, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkShift(t, rep)
	for _, want := range []string{"FigAdaptiveShift", "workload shift", "evicted"} {
		if !contains(rep.String(), want) {
			t.Errorf("report misses %q:\n%s", want, rep.String())
		}
	}
}

// TestExpLifecycleSynthetic runs the same trajectory on the 19-attribute
// workload — the shift is attr10 → attr9, both never indexed statically.
func TestExpLifecycleSynthetic(t *testing.T) {
	rep, err := quickRunner().ExpAdaptive(Synthetic, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkShift(t, rep)
}

// TestAdaptiveSynthetic covers the second workload at a different offer
// rate: convergence must hold there too, with replicas added (the
// Synthetic layout has no unsorted replica to replace), and so must the
// shift attr10 → attr9, both never indexed statically.
func TestAdaptiveSynthetic(t *testing.T) {
	r := tinyAdaptiveRunner()
	rep, err := r.ExpAdaptive(Synthetic, 6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].BlocksBuilt != rep.TotalBlocks || rep.Jobs[0].ReplicasAdded != rep.TotalBlocks {
		t.Errorf("offer rate 1.0: job 1 = %+v, want all %d blocks built as added replicas",
			rep.Jobs[0], rep.TotalBlocks)
	}
	if rep.Jobs[1].IndexScanFraction != 1.0 {
		t.Errorf("job 2 fraction = %f, want 1.0 after a full first-job build", rep.Jobs[1].IndexScanFraction)
	}
	for i := 2; i < len(rep.Jobs); i++ {
		if rep.Jobs[i].Seconds > rep.Jobs[i-1].Seconds+1e-9 {
			t.Errorf("job %d runtime rose after convergence", i+1)
		}
	}
	if shift := rep.Shift[0]; shift.BlocksBuilt != rep.TotalBlocks || shift.Evicted == 0 {
		t.Errorf("shift job 1 = %+v, want all %d blocks built, paid for by evictions", shift, rep.TotalBlocks)
	}
	if rep.Shift[1].IndexScanFraction != 1.0 {
		t.Errorf("shift job 2 fraction = %f, want 1.0", rep.Shift[1].IndexScanFraction)
	}
}

// TestAdaptiveReportRendering keeps the human-readable outputs stable
// enough for hailbench.
func TestAdaptiveReportRendering(t *testing.T) {
	r := tinyAdaptiveRunner()
	rep, err := r.ExpAdaptive(UserVisits, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"FigAdaptive", "job1", "job2", "runtime [s]", "idx splits [%]", "overhead",
		"FigAdaptiveShift", "job5", "evicted", "workload shift"} {
		if !contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}
