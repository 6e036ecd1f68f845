package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// ExpLifecycle is the adaptive replica lifecycle experiment: the
// evolving-workload story (§4.1) taken one step further than ExpAdaptive.
// Bob's queries first move to column A (never indexed by the static
// layout) and the adaptive indexer converges on it — filling the fixed
// extra-storage budget with column-A replicas. Then the workload shifts
// again, to column B. Before this PR the system was frozen at that point:
// the budget was exhausted, every column-B build was denied, and column B
// paid full scans forever. With the lifecycle manager (heat-tracked
// eviction), each column-B build retires the coldest column-A replicas
// via Cluster.DropReplica — generation bumps and all — and the system
// converges on the new column inside the same budget.
//
// Gates (the experiment errors out on violation):
//   - every job's result is multiset-identical to non-adaptive execution
//     of the same query on the same cluster;
//   - every evicted replica is unregistered from the namenode directory
//     and its block's generation bumped (so no stale cache entry or
//     ghost-replica pin can survive it);
//   - phase B converges to ≥90% index-scan splits on column B within the
//     budget (LifecycleConvergenceTarget);
//   - the extra storage never exceeds the budget by more than one replica
//     (the documented overshoot bound).

// LifecycleConvergenceTarget is the index-scan fraction phase B must
// reach on the shifted-to column.
const LifecycleConvergenceTarget = 0.9

// LifecycleJob is one job of the lifecycle trajectory.
type LifecycleJob struct {
	Job    int
	Phase  string // "colA" or "colB"
	Column int
	// IndexScanFraction is the fraction of blocks with an index-scan
	// split on this job's filter column.
	IndexScanFraction float64
	Seconds           float64
	BuildSeconds      float64
	Built             int
	Evicted           int
	EvictedBytes      int64
	BudgetDenied      int
	// ExtraBytes is the budget consumption after the job.
	ExtraBytes int64
	Rows       int
}

// LifecycleReport is the full result of the lifecycle experiment.
type LifecycleReport struct {
	Workload  Workload
	OfferRate float64
	// BudgetBytes is the fixed extra-storage budget (auto-sized to about
	// 1.25 columns' worth of replicas when the runner sets none).
	BudgetBytes int64
	TotalBlocks int
	ColumnA     int
	ColumnB     int
	Jobs        []LifecycleJob
	// Totals over phase B — the churn the eviction policy unlocked.
	TotalEvicted      int
	TotalEvictedBytes int64
	FinalFractionB    float64
}

// lifecycleQueries returns the two-phase workload: phase A is the
// adaptive experiment's query (a never-indexed attribute), phase B
// filters on a second attribute the static layout also never indexes.
func lifecycleQueries(w Workload) (qa, qb *query.Query, colA, colB int) {
	qa = adaptiveQuery(w)
	if w == UserVisits {
		return qa, &query.Query{
			Filter: []query.Predicate{
				query.Between(workload.UVSearchWord, schema.StringVal("h"), schema.StringVal("n")),
			},
			Projection: []int{workload.UVSourceIP},
		}, workload.UVDuration, workload.UVSearchWord
	}
	return qa, &query.Query{
		Filter:     []query.Predicate{query.Between(8, schema.IntVal(0), schema.IntVal(1<<20))},
		Projection: []int{0},
	}, 9, 8
}

// ExpLifecycle runs jobsPerPhase jobs on column A, then jobsPerPhase jobs
// on column B, under one fixed budget with eviction enabled. offerRate 0
// selects adaptive.DefaultOfferRate; a zero runner AdaptiveBudget
// auto-sizes the budget to ~1.25 columns of adaptive replicas, the shape
// that forces phase B to evict.
func (r *Runner) ExpLifecycle(w Workload, jobsPerPhase int, offerRate float64) (*LifecycleReport, error) {
	if jobsPerPhase < 2 {
		return nil, fmt.Errorf("lifecycle: need at least two jobs per phase, got %d", jobsPerPhase)
	}

	// The lifecycle mutates the cluster heavily.
	f, err := r.freshHAILFixture(w, r.blockTextBytes)
	if err != nil {
		return nil, err
	}
	cluster := f.cluster
	blockSize := r.blockTextBytes(w, f.lines)

	nn := cluster.NameNode()
	blocks, err := nn.FileBlocks(f.file)
	if err != nil {
		return nil, err
	}
	qa, qb, colA, colB := lifecycleQueries(w)

	// Non-adaptive references for both phases, computed before any
	// conversion mutates the cluster.
	reference := func(q *query.Query) (map[string]int, error) {
		e := &mapred.Engine{Cluster: cluster}
		res, err := e.Run(&mapred.Job{
			Name: "lifecycle-reference", File: f.file,
			Input: &core.InputFormat{
				Cluster: cluster, Query: q,
				Splitting: true, SplitsPerNode: SplitsPerNodePaper,
			},
			MapBatch: workload.PassthroughMapBatch,
		})
		if err != nil {
			return nil, err
		}
		return multiset(res.Output), nil
	}
	refA, err := reference(qa)
	if err != nil {
		return nil, err
	}
	refB, err := reference(qb)
	if err != nil {
		return nil, err
	}

	// Budget: the runner's explicit cap, or ~1.25 columns' worth of
	// adaptive replicas (one stored replica per block, sized by block 0's
	// first alive replica as Dir_rep records it).
	budget := r.AdaptiveBudget
	if budget <= 0 {
		for _, n := range cluster.ReplicaOrder(blocks[0], 0) {
			if dn, err := cluster.DataNode(n); err == nil && dn.Alive() {
				info, _ := nn.ReplicaInfo(blocks[0], n)
				budget = int64(float64(info.Size) * float64(len(blocks)) * 1.25)
				break
			}
		}
	}

	idx := adaptive.New(cluster, offerRate)
	idx.SetBudgetBytes(budget)
	idx.SetEvict(true)
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask}

	rep := &LifecycleReport{
		Workload:    w,
		OfferRate:   idx.EffectiveOfferRate(),
		BudgetBytes: budget,
		TotalBlocks: f.scale.RealBlocks,
		ColumnA:     colA,
		ColumnB:     colB,
	}

	runPhase := func(phase string, q *query.Query, ref map[string]int, count int) error {
		for j := 0; j < count; j++ {
			gensBefore := make(map[hdfs.BlockID]uint64, len(blocks))
			for _, b := range blocks {
				gensBefore[b] = nn.Generation(b)
			}
			jobNo := len(rep.Jobs) + 1
			res, err := engine.Run(&mapred.Job{
				Name: fmt.Sprintf("lifecycle-%s-%d", phase, jobNo), File: f.file,
				Input: &core.InputFormat{
					Cluster: cluster, Query: q, Adaptive: idx,
					Splitting: true, SplitsPerNode: SplitsPerNodePaper,
				},
				MapBatch: workload.PassthroughMapBatch,
			})
			if err != nil {
				return err
			}
			if err := idx.LastErr(); err != nil {
				return err
			}
			if !sameMultiset(multiset(res.Output), ref) {
				return fmt.Errorf("lifecycle: %s job %d diverged from non-adaptive execution", phase, jobNo)
			}
			plan := idx.LastJob()
			// Gate: every eviction left the directory consistent and
			// bumped the block's generation — the property that keeps
			// caches and split pinning honest. The freed node may
			// legitimately host a *new* replica of the same block later
			// in the job (pickFreeNode reuses it), so the check is
			// column-precise: what must be gone is the evicted column's
			// indexed replica at that node.
			for _, ev := range plan.EvictedReplicas {
				if info, ok := nn.ReplicaInfo(ev.Block, ev.Node); ok && info.HasIndex && info.SortColumn == ev.Column {
					return fmt.Errorf("lifecycle: evicted replica (%d,%d,@%d) still registered", ev.Block, ev.Node, ev.Column+1)
				}
				if g := nn.Generation(ev.Block); g <= gensBefore[ev.Block] {
					return fmt.Errorf("lifecycle: eviction of block %d did not bump its generation", ev.Block)
				}
			}
			// Gate: the budget holds (one-replica overshoot allowed).
			if extra := idx.ExtraBytes(); extra > budget+int64(blockSize)*2 {
				return fmt.Errorf("lifecycle: extra storage %d far exceeds budget %d", extra, budget)
			}

			e2e, _ := r.adaptiveJobTimes(f, res, plan)
			build := r.adaptiveBuildSeconds(f, plan)
			frac := 0.0
			if plan.Indexed+plan.Missing > 0 {
				frac = float64(plan.Indexed) / float64(plan.Indexed+plan.Missing)
			}
			rep.Jobs = append(rep.Jobs, LifecycleJob{
				Job: jobNo, Phase: phase, Column: plan.Column,
				IndexScanFraction: frac,
				Seconds:           e2e + build, BuildSeconds: build,
				Built: plan.Built, Evicted: plan.Evicted,
				EvictedBytes: plan.EvictedBytes, BudgetDenied: plan.BudgetDenied,
				ExtraBytes: idx.ExtraBytes(), Rows: len(res.Output),
			})
			if phase == "colB" {
				rep.TotalEvicted += plan.Evicted
				rep.TotalEvictedBytes += plan.EvictedBytes
			}
		}
		return nil
	}

	if err := runPhase("colA", qa, refA, jobsPerPhase); err != nil {
		return nil, err
	}
	if err := runPhase("colB", qb, refB, jobsPerPhase); err != nil {
		return nil, err
	}

	// Convergence gate: a job's reported coverage predates its own
	// builds, so one more observed job measures where phase B landed.
	if err := runPhase("colB", qb, refB, 1); err != nil {
		return nil, err
	}
	last := rep.Jobs[len(rep.Jobs)-1]
	rep.FinalFractionB = last.IndexScanFraction
	if rep.FinalFractionB < LifecycleConvergenceTarget {
		return nil, fmt.Errorf("lifecycle: column B converged to only %.0f%% index scans (want ≥%.0f%%) — eviction failed to reclaim budget",
			100*rep.FinalFractionB, 100*LifecycleConvergenceTarget)
	}
	if rep.TotalEvicted == 0 {
		return nil, fmt.Errorf("lifecycle: phase B converged without evicting anything — the budget was never binding")
	}
	return rep, nil
}

// Figure renders the trajectory: runtime, per-column index-scan coverage
// and eviction churn per job.
func (rep *LifecycleReport) Figure() *Figure {
	fig := &Figure{
		ID: "FigLifecycle",
		Title: fmt.Sprintf("Adaptive replica lifecycle, %s (budget %.1f MB, col @%d → col @%d)",
			rep.Workload, float64(rep.BudgetBytes)/1e6, rep.ColumnA+1, rep.ColumnB+1),
		Unit: "s / %",
	}
	var runtime, frac, built, evicted Series
	runtime.Label = "runtime [s]"
	frac.Label = "idx splits [%]"
	built.Label = "blocks built"
	evicted.Label = "evicted"
	for _, j := range rep.Jobs {
		x := fmt.Sprintf("%s-j%d", j.Phase, j.Job)
		runtime.Points = append(runtime.Points, Point{x, j.Seconds})
		frac.Points = append(frac.Points, Point{x, 100 * j.IndexScanFraction})
		built.Points = append(built.Points, Point{x, float64(j.Built)})
		evicted.Points = append(evicted.Points, Point{x, float64(j.Evicted)})
	}
	fig.Series = []Series{runtime, frac, built, evicted}
	return fig
}

// String renders the report plus the shift-convergence summary.
func (rep *LifecycleReport) String() string {
	var b strings.Builder
	b.WriteString(rep.Figure().String())
	fmt.Fprintf(&b, "workload shift @%d → @%d converged to %.0f%% index scans on the new column inside a %.1f MB budget: %d cold replicas (%.1f MB) evicted — pre-lifecycle this was BudgetDenied forever\n",
		rep.ColumnA+1, rep.ColumnB+1, 100*rep.FinalFractionB,
		float64(rep.BudgetBytes)/1e6, rep.TotalEvicted, float64(rep.TotalEvictedBytes)/1e6)
	return b.String()
}
