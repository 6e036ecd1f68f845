package experiments

import (
	"context"
	"fmt"
	"maps"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/sim"
)

// ExpAdaptive reproduces the adaptive-indexing trajectory (the paper's
// §4.1 evolving-workload story, executed LIAH-style) in two phases on one
// cluster, under one extra-storage budget with eviction on.
//
// Phase A: Bob's queries move to an attribute no replica is indexed on —
// UserVisits.duration — and the same query is run k times. With the
// adaptive indexer at offer rate r, job 1 pays a bounded penalty (≈ r ×
// the cost of indexing the whole file) to convert the first batch of
// blocks; every following job sees more index-scan splits and runs
// faster, until the fraction reaches 1.0.
//
// Phase B: the workload shifts to a second never-indexed attribute. The
// budget (about 1.25 columns' worth of replicas) cannot hold both columns,
// so each new build retires the coldest phase-A replicas via
// Cluster.DropReplica — generation bumps and all — and the new column
// converges inside the same budget.
//
// Gates (the experiment errors out on violation):
//   - every job's result is multiset-identical to non-adaptive execution
//     of its query on the same cluster;
//   - every evicted replica is unregistered from the namenode directory
//     and its block's generation bumped (so no stale cache entry or
//     ghost-replica pin can survive it);
//   - the extra storage never exceeds the budget by more than two blocks;
//   - phase B builds, job for job, what phase A built, and evicts at
//     least once.
//
// All jobs are executed for real on a fresh in-process cluster; reported
// seconds come from the same calibrated cost model as the paper figures,
// plus a build surcharge for the adaptive sort+index+write work (which
// runs inside the job's map slots, so it is spread over them).

// AdaptiveJob is one job of the sequence.
type AdaptiveJob struct {
	Job    int
	Column int // the filter column
	// IndexScanFraction is the fraction of the file's blocks that got an
	// index-scan split in this job's split phase.
	IndexScanFraction float64
	QuerySeconds      float64 // simulated end-to-end query time
	BuildSeconds      float64 // simulated adaptive build surcharge
	Seconds           float64 // QuerySeconds + BuildSeconds
	BlocksBuilt       int
	ReplicasAdded     int
	ReplicasReplaced  int
	// Lifecycle counters: builds denied at the budget, and adaptive
	// replicas evicted to fund this job's builds.
	BudgetDenied int
	Evicted      int
	EvictedBytes int64
	// ExtraBytes is the budget consumption after the job.
	ExtraBytes int64
	Rows       int // real result rows (must be identical across a phase)
}

// AdaptiveReport is the full result of the adaptive experiment.
type AdaptiveReport struct {
	Workload  Workload
	OfferRate float64
	// TotalBlocks is the real block count of the uploaded file.
	TotalBlocks int
	// BaselineSeconds is the simulated runtime of the pure full-scan job
	// (what every job would cost without adaptive indexing). It equals
	// job 1's query time, since job 1 scans everything.
	BaselineSeconds float64
	// FullBuildSeconds is the simulated surcharge for converting every
	// block in a single job — the worst case the offer rate bounds.
	FullBuildSeconds float64
	// BudgetBytes is the fixed extra-storage budget of both phases.
	BudgetBytes      int64
	ColumnA, ColumnB int
	Jobs             []AdaptiveJob // phase A
	// Shift is phase B: one job more than phase A, since a job's coverage
	// predates its own builds and the last one observes where it landed.
	Shift []AdaptiveJob
}

// ExpAdaptive runs jobsPerPhase identical jobs on phase A's column, then
// jobsPerPhase+1 on phase B's, with the adaptive indexer at the given offer
// rate, and reports both trajectories.
func (r *Runner) ExpAdaptive(w Workload, jobsPerPhase int, offerRate float64) (*AdaptiveReport, error) {
	if jobsPerPhase < 2 {
		return nil, fmt.Errorf("adaptive: need at least two jobs per phase, got %d", jobsPerPhase)
	}

	// The adaptive indexer mutates the cluster (new, replaced and evicted
	// replicas).
	f, err := r.freshHAILFixture(w, r.BlockRows, specs[w].sortCols)
	if err != nil {
		return nil, err
	}
	cluster := f.cluster
	blockSize := blockTextBytes(f.lines, r.BlockRows)
	nn := cluster.NameNode()
	blocks, err := nn.FileBlocks(f.file)
	if err != nil {
		return nil, err
	}
	qa, qb := specs[w].adaptive, specs[w].shift

	// Non-adaptive references for both phases, computed before any
	// conversion mutates the cluster.
	refA, err := reference(f, qa)
	if err != nil {
		return nil, err
	}
	refB, err := reference(f, qb)
	if err != nil {
		return nil, err
	}

	// Budget: ~1.25 columns' worth of adaptive replicas (one stored
	// replica per block, sized by block 0's first alive replica as Dir_rep
	// records it).
	var budget int64
	for _, n := range cluster.ReplicaOrder(blocks[0], 0) {
		if dn, err := cluster.DataNode(n); err == nil && dn.Alive() {
			info, _ := nn.ReplicaInfo(blocks[0], n)
			budget = int64(float64(info.Size) * float64(len(blocks)) * 1.25)
			break
		}
	}

	idx := adaptive.New(cluster, offerRate, budget)
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask}

	rep := &AdaptiveReport{
		Workload:    w,
		OfferRate:   offerRate,
		TotalBlocks: f.scale.RealBlocks,
		BudgetBytes: budget,
		ColumnA:     qa.Filter[0].Column,
		ColumnB:     qb.Filter[0].Column,
	}

	jobNo := 0
	runPhase := func(q *query.Query, ref map[string]int, count int) ([]AdaptiveJob, error) {
		var jobs []AdaptiveJob
		for range count {
			jobNo++
			gensBefore := make(map[hdfs.BlockID]uint64, len(blocks))
			for _, b := range blocks {
				gensBefore[b] = nn.Generation(b)
			}
			got := make(map[string]int, len(ref))
			res, err := engine.Stream(context.Background(), &mapred.Job{
				Name: fmt.Sprintf("adaptive-job-%d", jobNo), File: f.file,
				Input: &core.InputFormat{
					Cluster: cluster, Query: q, Adaptive: idx,
					Splitting: true, SplitsPerNode: SplitsPerNodePaper,
				},
			}, tally(got))
			if err != nil {
				return nil, err
			}
			plan := idx.LastJob()
			if plan.Err != nil {
				return nil, plan.Err
			}
			if !maps.Equal(got, ref) {
				return nil, fmt.Errorf("adaptive: job %d diverged from non-adaptive execution", jobNo)
			}
			// Every eviction left the directory consistent and bumped the
			// block's generation. The freed node may legitimately host a
			// *new* replica of the same block later in the job
			// (pickFreeNode reuses it), so the check is column-precise:
			// what must be gone is the evicted column's indexed replica at
			// that node.
			for _, ev := range plan.EvictedReplicas {
				if info, ok := nn.ReplicaInfo(ev.Block, ev.Node); ok && info.HasIndex && info.SortColumn == ev.Column {
					return nil, fmt.Errorf("adaptive: evicted replica (%d,%d,@%d) still registered", ev.Block, ev.Node, ev.Column+1)
				}
				if g := nn.Generation(ev.Block); g <= gensBefore[ev.Block] {
					return nil, fmt.Errorf("adaptive: eviction of block %d did not bump its generation", ev.Block)
				}
			}
			if extra := idx.ExtraBytes(); extra > budget+int64(blockSize)*2 {
				return nil, fmt.Errorf("adaptive: extra storage %d far exceeds budget %d", extra, budget)
			}

			e2e, _, build := r.adaptiveJobSeconds(f, res, plan)
			frac := 0.0
			if plan.Indexed+plan.Missing > 0 {
				frac = float64(plan.Indexed) / float64(plan.Indexed+plan.Missing)
			}
			jobs = append(jobs, AdaptiveJob{
				Job: jobNo, Column: plan.Column,
				IndexScanFraction: frac,
				QuerySeconds:      e2e,
				BuildSeconds:      build,
				Seconds:           e2e + build,
				BlocksBuilt:       plan.Built,
				ReplicasAdded:     plan.ReplicasAdded,
				ReplicasReplaced:  plan.ReplicasReplaced,
				BudgetDenied:      plan.BudgetDenied,
				Evicted:           plan.Evicted,
				EvictedBytes:      plan.EvictedBytes,
				ExtraBytes:        idx.ExtraBytes(),
				Rows:              res.Rows,
			})
		}
		return jobs, nil
	}

	if rep.Jobs, err = runPhase(qa, refA, jobsPerPhase); err != nil {
		return nil, err
	}
	first := rep.Jobs[0]
	rep.BaselineSeconds = first.QuerySeconds
	if first.BlocksBuilt > 0 {
		rep.FullBuildSeconds = first.BuildSeconds * float64(f.scale.RealBlocks) / float64(first.BlocksBuilt)
	}
	if rep.Shift, err = runPhase(qb, refB, jobsPerPhase+1); err != nil {
		return nil, err
	}

	for i, a := range rep.Jobs {
		if b := rep.Shift[i]; b.BlocksBuilt != a.BlocksBuilt {
			return nil, fmt.Errorf("adaptive: shift job %d built %d blocks, phase A's job %d built %d — eviction failed to reclaim budget",
				b.Job, b.BlocksBuilt, a.Job, a.BlocksBuilt)
		}
	}
	if evicted, _ := rep.evicted(); evicted == 0 {
		return nil, fmt.Errorf("adaptive: phase B evicted nothing — the budget was never binding")
	}
	return rep, nil
}

// adaptiveJobSeconds prices one adaptive job from its plan. The query
// runs under HailSplitting: the unindexed blocks keep per-block scan
// splits and the indexed ones are packed into Nodes × SplitsPerNode
// locality splits (§4.3), so mixedJobTimes prices it, map work included.
// The build surcharge converts the plan's measured build volume into
// simulated seconds at paper scale. Per converted block the cluster pays
// the in-memory sort + index creation (the block bytes were just read by
// the scanning map task, so no extra read I/O) and the write of the
// reorganized replica. Builds run inside the job's map slots, so the
// total is spread over the cluster's slot count.
func (r *Runner) adaptiveJobSeconds(f *fixture, res *mapred.JobResult, plan adaptive.JobPlan) (e2e, workSeconds, build float64) {
	var packedTasks float64
	if plan.Indexed > 0 {
		packedTasks = float64(r.Nodes * SplitsPerNodePaper)
	}
	scanFrac := float64(plan.Missing) / float64(plan.Indexed+plan.Missing)
	e2e, workSeconds, _ = r.mixedJobTimes(f, res, scanFrac, packedTasks)
	if plan.Built == 0 {
		return e2e, workSeconds, 0
	}
	p := r.Profile
	rs := f.scale.RowScale
	sortedPaper := float64(plan.SortedBytes) / float64(plan.Built) * rs
	storedPaper := float64(plan.StoredBytes) / float64(plan.Built) * rs
	perBlock := sortedPaper/(sim.SortIndexMBps*1e6)/p.CPUFactor +
		storedPaper/(p.DiskMBps*1e6)
	builtPaper := float64(plan.Built) * float64(f.scale.PaperBlocks) / float64(f.scale.RealBlocks)
	slots := float64(p.Nodes * sim.SlotsPerNode)
	return e2e, workSeconds, builtPaper * perBlock / slots
}

// evicted totals phase B's eviction churn.
func (rep *AdaptiveReport) evicted() (replicas int, bytes int64) {
	for _, j := range rep.Shift {
		replicas += j.Evicted
		bytes += j.EvictedBytes
	}
	return replicas, bytes
}

// Figure renders phase A as an experiments table: simulated runtime,
// index-scan coverage and conversions per job.
func (rep *AdaptiveReport) Figure() *Figure {
	return &Figure{
		ID: "FigAdaptive",
		Title: fmt.Sprintf("Adaptive indexing, %s, offer rate %.2f (baseline scan %.1f s)",
			rep.Workload, rep.OfferRate, rep.BaselineSeconds),
		Unit:   "s / %",
		Series: trajectory(rep.Jobs, false),
	}
}

// ShiftFigure renders phase B: the same series plus eviction churn.
func (rep *AdaptiveReport) ShiftFigure() *Figure {
	return &Figure{
		ID: "FigAdaptiveShift",
		Title: fmt.Sprintf("Workload shift @%d → @%d, %s (budget %.1f MB)",
			rep.ColumnA+1, rep.ColumnB+1, rep.Workload, float64(rep.BudgetBytes)/1e6),
		Unit:   "s / %",
		Series: trajectory(rep.Shift, true),
	}
}

// trajectory is the per-job series of one phase.
func trajectory(jobs []AdaptiveJob, withEvicted bool) []Series {
	runtime := Series{Label: "runtime [s]"}
	frac := Series{Label: "idx splits [%]"}
	built := Series{Label: "blocks built"}
	evicted := Series{Label: "evicted"}
	for _, j := range jobs {
		x := fmt.Sprintf("job%d", j.Job)
		runtime.Points = append(runtime.Points, Point{x, j.Seconds})
		frac.Points = append(frac.Points, Point{x, 100 * j.IndexScanFraction})
		built.Points = append(built.Points, Point{x, float64(j.BlocksBuilt)})
		evicted.Points = append(evicted.Points, Point{x, float64(j.Evicted)})
	}
	if withEvicted {
		return []Series{runtime, frac, built, evicted}
	}
	return []Series{runtime, frac, built}
}

// String renders both phases, each with its summary line.
func (rep *AdaptiveReport) String() string {
	var b strings.Builder
	b.WriteString(rep.Figure().String())
	last := rep.Jobs[len(rep.Jobs)-1]
	// The offer count is ceil(rate × missing), so the bound carries one
	// block of rounding slack.
	bound := rep.FullBuildSeconds * (rep.OfferRate + 1/float64(rep.TotalBlocks))
	fmt.Fprintf(&b, "job 1 overhead %.1f s (offer-rate bound: (%.2f + 1/%d blocks) × full build %.1f s = %.1f s); job %d at %.0f%% index scans\n\n",
		rep.Jobs[0].Seconds-rep.BaselineSeconds,
		rep.OfferRate, rep.TotalBlocks, rep.FullBuildSeconds, bound,
		last.Job, 100*last.IndexScanFraction)
	b.WriteString(rep.ShiftFigure().String())
	evicted, evictedBytes := rep.evicted()
	fmt.Fprintf(&b, "workload shift @%d → @%d converged to %.0f%% index scans on the new column inside a %.1f MB budget: %d cold replicas (%.1f MB) evicted\n",
		rep.ColumnA+1, rep.ColumnB+1, 100*rep.Shift[len(rep.Shift)-1].IndexScanFraction,
		float64(rep.BudgetBytes)/1e6, evicted, float64(evictedBytes)/1e6)
	return b.String()
}

// reference runs q on f's cluster as a plain job — no splitting, cache or
// adaptive indexer — and returns its rows as a multiset: the answer an
// experiment's runs of q are held to.
func reference(f *fixture, q *query.Query) (map[string]int, error) {
	rows := make(map[string]int)
	_, err := (&mapred.Engine{Cluster: f.cluster}).Stream(context.Background(), &mapred.Job{
		Name: "reference", File: f.file,
		Input: &core.InputFormat{Cluster: f.cluster, Query: q},
	}, tally(rows))
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// tally is a Stream consumer that builds the row→count map of a
// passthrough job's output in m.
func tally(m map[string]int) func(mapred.Chunk) bool {
	return func(chunk mapred.Chunk) bool {
		for row := range chunk.All() {
			m[row]++
		}
		return true
	}
}
