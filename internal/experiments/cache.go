package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/workload"
)

// ExpCache demonstrates the block-level result cache end to end on the
// repeated-selective-query workload the adaptive experiment already uses
// (it would hit the cache 100%, as the ROADMAP notes):
//
//   - job 1 runs cold and populates the cache (one entry per block);
//   - job 2 is identical and answers its blocks from the cache — no block
//     reads, no record-reader or map CPU, measurably lower task work;
//   - from job `adaptiveFrom` on, the adaptive indexer is switched on: its
//     conversions replace/add replicas, each bumping the block's
//     generation and purging the block's entries via the namenode's
//     replica-change hook — the converted blocks are recomputed (now as
//     index scans) while untouched blocks keep hitting.
//
// That cached execution answers as uncached execution does — cold, hot
// and across generation bumps — is core.FuzzEngine's to prove, not this
// trajectory's.
//
// Reported seconds come from the same calibrated cost model as the other
// figures; WorkSeconds isolates the slot-parallel map work, where the
// cache's savings land (the per-task dispatch bound of thousands of scan
// splits is unaffected by caching — see the ROADMAP's scan-split packing
// item).

// cacheAdaptiveFrom is the first job of the sequence with adaptive
// conversions (and therefore invalidations) enabled.
const cacheAdaptiveFrom = 3

// CacheJob is one job of the cache experiment's sequence.
type CacheJob struct {
	Job   int
	Phase string // "cold", "hot", "adaptive"
	// Seconds is simulated end-to-end runtime (query + adaptive build).
	Seconds float64
	// WorkSeconds is the slot-parallel map-work component of Seconds —
	// where cache hits save time even when the job is dispatch bound.
	WorkSeconds  float64
	BuildSeconds float64
	// Tasks is the dispatched map-task count — with PackScans on, the hot
	// jobs' dispatch bound visibly falls from per-block to per-node.
	Tasks     int
	Blocks    int // blocks processed by the job's tasks
	HitBlocks int // blocks answered from the cache
	HitRate   float64
	Rows      int
	// Cache counter deltas for this job, and occupancy after it.
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	CacheBytes    int64
	CacheEntries  int
	// BlocksBuilt is the adaptive conversions performed during the job
	// (each invalidates its block's entries).
	BlocksBuilt int
}

// CacheReport is the full result of the cache experiment.
type CacheReport struct {
	Workload Workload
	Budget   int64
	// PackScans reports whether the trajectory ran with packed scan
	// splits (the -pack-scans mode): the same cold/hot/invalidate
	// sequence, but scan blocks grouped into per-node splits and
	// fully-cached blocks pinned at their cached replica, so the hot
	// jobs' dispatch bound falls alongside their map work.
	PackScans   bool
	OfferRate   float64
	TotalBlocks int
	// BytesSaved is the cumulative data+index bytes hits avoided reading
	// (real measured bytes, unscaled).
	BytesSaved int64
	Jobs       []CacheJob
}

// ExpCache runs `jobs` identical jobs (at least cacheAdaptiveFrom) with
// the result cache enabled, switching the adaptive indexer on at job
// cacheAdaptiveFrom so its replica replacements exercise invalidation.
// budget 0 selects qcache.DefaultBudget; offerRate 0 selects
// adaptive.DefaultOfferRate. With packScans the cached jobs run under the
// PackScans split policy (scan blocks packed per node, fully-cached
// blocks pinned at their cached replica), so the trajectory additionally
// shows the hot jobs' dispatch bound falling.
func (r *Runner) ExpCache(w Workload, jobs int, budget int64, offerRate float64, packScans bool) (*CacheReport, error) {
	if jobs < cacheAdaptiveFrom {
		return nil, fmt.Errorf("cache: need at least %d jobs (cold, hot, invalidate), got %d", cacheAdaptiveFrom, jobs)
	}

	// Fresh fixture: the adaptive phase mutates the cluster. The packed
	// mode uses the dispatch experiment's finer block size: packing's win
	// is blocks / (nodes × SplitsPerNode), so the trajectory needs many
	// more blocks than packing slots for the dispatch drop to register.
	blockSize := r.blockTextBytes
	if packScans {
		blockSize = r.dispatchBlockSize
	}
	f, err := r.freshHAILFixture(w, blockSize)
	if err != nil {
		return nil, err
	}
	cluster := f.cluster

	q := adaptiveQuery(w)
	cache := qcache.New(budget)
	newInput := func(idx *adaptive.Indexer) *core.InputFormat {
		in := &core.InputFormat{
			Cluster: cluster, Query: q,
			Splitting: true, SplitsPerNode: SplitsPerNodePaper,
		}
		if idx != nil { // a typed nil in the interface would still be "set"
			in.Adaptive = idx
		}
		if packScans {
			in.PackScans = true
			sig, _ := in.QuerySignature()
			nn := cluster.NameNode()
			in.CachedReplica = func(b hdfs.BlockID) (hdfs.NodeID, bool) {
				return cache.CachedReplica(f.file, b, nn.Generation(b), sig, workload.PassthroughMapSig)
			}
		}
		return in
	}

	cluster.NameNode().SetReplicaChangeHook(cache.InvalidateBlock)
	defer cluster.NameNode().SetReplicaChangeHook(nil)
	idx := adaptive.New(cluster, adaptive.Disabled)
	idx.SetBudgetBytes(r.AdaptiveBudget)
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask, Cache: cache}

	rep := &CacheReport{
		Workload:    w,
		Budget:      cache.Stats().Budget,
		PackScans:   packScans,
		OfferRate:   offerRate,
		TotalBlocks: f.scale.RealBlocks,
	}
	prev := cache.Stats()
	for j := 1; j <= jobs; j++ {
		phase := "hot"
		if j == 1 {
			phase = "cold"
		}
		if j >= cacheAdaptiveFrom {
			phase = "adaptive"
			idx.SetOfferRate(offerRate)
		}
		res, err := engine.Run(&mapred.Job{
			Name: fmt.Sprintf("cache-job-%d", j), File: f.file,
			Input: newInput(idx), MapBatch: workload.PassthroughMapBatch,
			MapSig: workload.PassthroughMapSig,
		})
		if err != nil {
			return nil, err
		}
		if err := idx.LastErr(); err != nil {
			return nil, err
		}

		plan := idx.LastJob()
		e2e, work := r.adaptiveJobTimes(f, res, plan)
		build := r.adaptiveBuildSeconds(f, plan)
		st := res.TotalStats()
		cs := cache.Stats()
		d := cs.Sub(prev)
		prev = cs
		hitRate := 0.0
		if st.Blocks > 0 {
			hitRate = float64(st.BlocksFromCache) / float64(st.Blocks)
		}
		rep.Jobs = append(rep.Jobs, CacheJob{
			Job: j, Phase: phase,
			Seconds: e2e + build, WorkSeconds: work, BuildSeconds: build,
			Tasks:  len(res.Tasks),
			Blocks: st.Blocks, HitBlocks: st.BlocksFromCache, HitRate: hitRate,
			Rows:          len(res.Output),
			Hits:          d.Hits,
			Misses:        d.Misses,
			Evictions:     d.Evictions,
			Invalidations: d.Invalidations,
			CacheBytes:    cs.Bytes,
			CacheEntries:  cs.Entries,
			BlocksBuilt:   plan.Built,
		})
	}
	rep.BytesSaved = cache.Stats().BytesSaved
	return rep, nil
}

// Figure renders the trajectory: runtime, map work, hit rate and
// invalidations per job.
func (rep *CacheReport) Figure() *Figure {
	mode := ""
	if rep.PackScans {
		mode = ", packed scans"
	}
	fig := &Figure{
		ID: "FigCache",
		Title: fmt.Sprintf("Block-level result cache, %s (budget %.0f MB, adaptive from job %d%s)",
			rep.Workload, float64(rep.Budget)/1e6, cacheAdaptiveFrom, mode),
		Unit: "s / %",
	}
	var runtime, work, hits, inval, tasks Series
	runtime.Label = "runtime [s]"
	work.Label = "map work [s]"
	hits.Label = "cache hits [%]"
	inval.Label = "invalidated"
	tasks.Label = "tasks"
	for _, j := range rep.Jobs {
		x := fmt.Sprintf("job%d", j.Job)
		runtime.Points = append(runtime.Points, Point{x, j.Seconds})
		work.Points = append(work.Points, Point{x, j.WorkSeconds})
		hits.Points = append(hits.Points, Point{x, 100 * j.HitRate})
		inval.Points = append(inval.Points, Point{x, float64(j.Invalidations)})
		tasks.Points = append(tasks.Points, Point{x, float64(j.Tasks)})
	}
	fig.Series = []Series{runtime, work, hits, inval}
	if rep.PackScans {
		// The packed mode's headline: the hot jobs' dispatch count falls
		// to the per-node split count.
		fig.Series = append(fig.Series, tasks)
	}
	return fig
}

// String renders the figure plus a summary of the hot-job speedup and the
// invalidation phase.
func (rep *CacheReport) String() string {
	var b strings.Builder
	b.WriteString(rep.Figure().String())
	cold, hot := rep.Jobs[0], rep.Jobs[1]
	speedup := 0.0
	if hot.WorkSeconds > 0 {
		speedup = cold.WorkSeconds / hot.WorkSeconds
	}
	fmt.Fprintf(&b, "hot job answers %d/%d blocks from cache (%.0f%%), map work %.1f s → %.1f s (%.1f×); %.1f MB reads saved\n",
		hot.HitBlocks, hot.Blocks, 100*hot.HitRate,
		cold.WorkSeconds, hot.WorkSeconds, speedup,
		float64(rep.BytesSaved)/1e6)
	if rep.PackScans {
		fmt.Fprintf(&b, "packed scans: %d dispatched tasks per job (vs %d blocks)\n",
			hot.Tasks, rep.TotalBlocks)
	}
	var invalidated int64
	var rebuilt int
	for _, j := range rep.Jobs {
		invalidated += j.Invalidations
		rebuilt += j.BlocksBuilt
	}
	fmt.Fprintf(&b, "adaptive phase converted %d blocks, invalidating %d cache entries\n", rebuilt, invalidated)
	return b.String()
}
