package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
)

// ExpDispatch measures what scan-split packing buys on the two workloads
// the ROADMAP called dispatch-bound end to end:
//
//   - adaptive job 1: the first job of a LIAH-style sequence filters on
//     an attribute no replica is indexed on, so every block is a
//     full-scan split — thousands of near-empty map tasks at paper scale;
//   - cache-hot jobs: a repeated query whose blocks all hit the
//     block-level result cache does ~zero map work per block, leaving
//     per-task dispatch as the entire runtime.
//
// Each scenario runs unpacked (per-block scan splits) and packed
// (`-pack-scans`: blocks grouped by preferred alive replica node,
// SplitsPerNode splits per node) on the same fixture. A final failover
// phase kills a packed split's pinned node mid-job and verifies the job
// completes with only the affected blocks re-resolved
// (mapred.Split.Fallback), never by rescanning whole splits elsewhere.
// That packed, cached and failed-over runs return the unpacked rows is
// core.FuzzEngine's to prove.

// DispatchRun is one measured job execution of the experiment.
type DispatchRun struct {
	Packed bool
	// Tasks is the real dispatched map-task count; PaperTasks the task
	// count at paper scale (per-block tasks scale with data, packed tasks
	// are a function of cluster size and stay fixed).
	Tasks      int
	PaperTasks float64
	Blocks     int
	HitBlocks  int // blocks answered from the result cache
	// Seconds is simulated end-to-end runtime, WorkSeconds its
	// slot-parallel map-work component (the gap between them is the
	// dispatch bound packing removes).
	Seconds     float64
	WorkSeconds float64
	Rows        int
}

// DispatchScenario pairs the unpacked and packed runs of one workload
// shape.
type DispatchScenario struct {
	Name     string // "adaptive-job1" or "cache-hot"
	Unpacked DispatchRun
	Packed   DispatchRun
	// TaskReduction is Unpacked.Tasks / Packed.Tasks on the real runs —
	// the dispatch-count headline.
	TaskReduction float64
	Speedup       float64 // Unpacked.Seconds / Packed.Seconds
}

// DispatchFailover reports the packed-split failover phase: a pinned node
// killed at ~50% job progress.
type DispatchFailover struct {
	Victim hdfs.NodeID
	// VictimBlocks is how many blocks were pinned to the victim at split
	// time — the upper bound on legitimate re-execution.
	VictimBlocks int
	// TasksRepacked is the number of tasks whose split was re-resolved via
	// Split.Fallback; BlocksRerun the block executions repeated. The gate
	// requires BlocksRerun ≤ VictimBlocks: a node loss re-resolves only
	// the affected blocks.
	TasksRepacked int
	BlocksRerun   int
	ReExecuted    int // task attempts lost and retried
	Rows          int
}

// DispatchReport is the full result of the dispatch experiment.
type DispatchReport struct {
	Workload      Workload
	TotalBlocks   int
	Nodes         int
	SplitsPerNode int
	Scenarios     []DispatchScenario
	Failover      DispatchFailover
	// SplitPhaseNameNodeOps is the packed run's split-phase directory
	// lookup count (mapred.TaskStats.NameNodeOps) — the metadata cost the
	// split phase pays instead of block-header reads (§6.4.1).
	SplitPhaseNameNodeOps int
}

// ExpDispatch runs the packed-vs-unpacked dispatch experiment on a fresh
// fixture, with the cache-hot scenario's caches at qcache.DefaultBudget.
func (r *Runner) ExpDispatch(w Workload) (*DispatchReport, error) {
	// Packing's win is blocks / (nodes × SplitsPerNode), so the fixture
	// needs many more blocks than packing slots: 1/16th of the standard
	// block rows (at least 250) gives 160 blocks at both quick and full
	// fidelity.
	f, err := r.freshHAILFixture(w, max(r.BlockRows/16, 250), specs[w].sortCols)
	if err != nil {
		return nil, err
	}
	cluster := f.cluster

	// The query filters on an attribute no replica is indexed on — the
	// adaptive sequence's job-1 shape: every block is a scan split.
	q := specs[w].adaptive
	newInput := func(pack bool) *core.InputFormat {
		return &core.InputFormat{
			Cluster: cluster, Query: q,
			Splitting: true, SplitsPerNode: SplitsPerNodePaper,
			PackScans: pack,
		}
	}
	runJob := func(name string, pack bool, cache *qcache.Cache) (*mapred.JobResult, error) {
		e := &mapred.Engine{Cluster: cluster}
		if cache != nil {
			e.Cache = cache
		}
		return e.Stream(context.Background(), &mapred.Job{
			Name: name, File: f.file,
			Input: newInput(pack),
		}, nil)
	}

	rep := &DispatchReport{
		Workload:      w,
		TotalBlocks:   f.scale.RealBlocks,
		Nodes:         r.Nodes,
		SplitsPerNode: SplitsPerNodePaper,
	}

	// A run's price follows its measured split composition: its
	// one-block splits are per-block scan tasks, the rest packed.
	toRun := func(res *mapred.JobResult, packed bool) DispatchRun {
		singles, packedTasks := 0, 0
		for _, t := range res.Tasks {
			if len(t.Split.Blocks) > 1 {
				packedTasks++
			} else {
				singles++
			}
		}
		e2e, work, paperTasks := r.mixedJobTimes(f, res,
			float64(singles)/float64(f.scale.RealBlocks), float64(packedTasks))
		st := res.TotalStats()
		return DispatchRun{
			Packed: packed, Tasks: len(res.Tasks), PaperTasks: paperTasks,
			Blocks: st.Blocks, HitBlocks: st.BlocksFromCache,
			Seconds: e2e, WorkSeconds: work, Rows: res.Rows,
		}
	}

	// --- Scenario 1: adaptive job 1 (nothing indexed, pure scans). ---
	unpacked, err := runJob("dispatch-scan-unpacked", false, nil)
	if err != nil {
		return nil, err
	}
	packedRes, err := runJob("dispatch-scan-packed", true, nil)
	if err != nil {
		return nil, err
	}
	rep.SplitPhaseNameNodeOps = packedRes.SplitPhase.NameNodeOps
	rep.Scenarios = append(rep.Scenarios, newScenario("adaptive-job1",
		toRun(unpacked, false), toRun(packedRes, true)))

	// --- Scenario 2: cache-hot job (cold populates, hot replays). Each
	// variant gets its own cache: entries are keyed by the replica they
	// were computed at, which packing pins differently. ---
	hotRun := func(pack bool) (DispatchRun, error) {
		cache := qcache.New(0)
		cluster.NameNode().SetReplicaChangeHook(cache.InvalidateBlock)
		defer cluster.NameNode().SetReplicaChangeHook(nil)
		label := "unpacked"
		if pack {
			label = "packed"
		}
		if _, err := runJob("dispatch-hot-cold-"+label, pack, cache); err != nil {
			return DispatchRun{}, err
		}
		hot, err := runJob("dispatch-hot-"+label, pack, cache)
		if err != nil {
			return DispatchRun{}, err
		}
		run := toRun(hot, pack)
		if run.HitBlocks < run.Blocks {
			return DispatchRun{}, fmt.Errorf("dispatch: %s hot job hit only %d/%d blocks", label, run.HitBlocks, run.Blocks)
		}
		return run, nil
	}
	hotUnpacked, err := hotRun(false)
	if err != nil {
		return nil, err
	}
	hotPacked, err := hotRun(true)
	if err != nil {
		return nil, err
	}
	rep.Scenarios = append(rep.Scenarios, newScenario("cache-hot", hotUnpacked, hotPacked))

	for _, sc := range rep.Scenarios {
		if sc.TaskReduction < 4 {
			return nil, fmt.Errorf("dispatch: %s packed splits reduced tasks only %.1fx (%d → %d), want ≥4x",
				sc.Name, sc.TaskReduction, sc.Unpacked.Tasks, sc.Packed.Tasks)
		}
	}

	// --- Failover: kill a packed split's pinned node at ~50% progress.
	// The job must complete with only the victim's blocks re-resolved. ---
	splits, _, err := newInput(true).Splits(f.file, nil)
	if err != nil {
		return nil, err
	}
	victim := hdfs.NodeID(-1)
	for i := len(splits) - 1; i >= 0; i-- {
		if len(splits[i].Blocks) > 1 {
			victim = splits[i].Locations[0]
			break
		}
	}
	if victim == -1 {
		return nil, fmt.Errorf("dispatch: no packed split to fail over")
	}
	victimBlocks := 0
	for _, s := range splits {
		for _, n := range s.Pins {
			if n == victim {
				victimBlocks++
			}
		}
	}
	killRes, err := runKilled(cluster, victim, &mapred.Job{
		Name: "dispatch-packed-kill", File: f.file,
		Input: newInput(true),
	})
	if err != nil {
		return nil, fmt.Errorf("dispatch: packed job with node kill failed: %v", err)
	}
	if killRes.BlocksRerun > victimBlocks {
		return nil, fmt.Errorf("dispatch: node kill re-ran %d blocks, more than the %d pinned to the victim",
			killRes.BlocksRerun, victimBlocks)
	}
	rep.Failover = DispatchFailover{
		Victim: victim, VictimBlocks: victimBlocks,
		TasksRepacked: killRes.Repacked, BlocksRerun: killRes.BlocksRerun,
		ReExecuted: killRes.ReExecuted, Rows: killRes.Rows,
	}
	if err := cluster.ReviveNode(victim); err != nil {
		return nil, err
	}
	return rep, nil
}

func newScenario(name string, unpacked, packed DispatchRun) DispatchScenario {
	sc := DispatchScenario{Name: name, Unpacked: unpacked, Packed: packed}
	if packed.Tasks > 0 {
		sc.TaskReduction = float64(unpacked.Tasks) / float64(packed.Tasks)
	}
	if packed.Seconds > 0 {
		sc.Speedup = unpacked.Seconds / packed.Seconds
	}
	return sc
}

// Figure renders the dispatch comparison: per-scenario runtime and
// paper-scale task counts, unpacked vs packed.
func (rep *DispatchReport) Figure() *Figure {
	fig := &Figure{
		ID: "FigDispatch",
		Title: fmt.Sprintf("Scan-split packing, %s (%d blocks, %d nodes × %d splits)",
			rep.Workload, rep.TotalBlocks, rep.Nodes, rep.SplitsPerNode),
		Unit: "s / tasks",
	}
	var unpackedS, packedS, unpackedT, packedT, reduction Series
	unpackedS.Label = "per-block [s]"
	packedS.Label = "packed [s]"
	unpackedT.Label = "per-block tasks"
	packedT.Label = "packed tasks"
	reduction.Label = "tasks cut [x]"
	for _, sc := range rep.Scenarios {
		unpackedS.Points = append(unpackedS.Points, Point{sc.Name, sc.Unpacked.Seconds})
		packedS.Points = append(packedS.Points, Point{sc.Name, sc.Packed.Seconds})
		unpackedT.Points = append(unpackedT.Points, Point{sc.Name, sc.Unpacked.PaperTasks})
		packedT.Points = append(packedT.Points, Point{sc.Name, sc.Packed.PaperTasks})
		reduction.Points = append(reduction.Points, Point{sc.Name, sc.TaskReduction})
	}
	fig.Series = []Series{unpackedS, packedS, unpackedT, packedT, reduction}
	return fig
}

// String renders the figure plus the dispatch-reduction and failover
// summaries.
func (rep *DispatchReport) String() string {
	var b strings.Builder
	b.WriteString(rep.Figure().String())
	for _, sc := range rep.Scenarios {
		fmt.Fprintf(&b, "%s: %d → %d dispatched tasks (%.1fx fewer), %.1f s → %.1f s (%.1fx)\n",
			sc.Name, sc.Unpacked.Tasks, sc.Packed.Tasks, sc.TaskReduction,
			sc.Unpacked.Seconds, sc.Packed.Seconds, sc.Speedup)
	}
	fo := rep.Failover
	fmt.Fprintf(&b, "failover: killed node %d mid-job; %d task(s) repacked (only the victim's %d pinned blocks re-resolved), %d/%d blocks re-executed, job completed with %d rows\n",
		fo.Victim, fo.TasksRepacked, fo.VictimBlocks, fo.BlocksRerun, rep.TotalBlocks, fo.Rows)
	fmt.Fprintf(&b, "split phase: %d namenode directory ops, 0 block-header reads (§6.4.1)\n",
		rep.SplitPhaseNameNodeOps)
	return b.String()
}
