package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/qcache"
)

// ExpCache demonstrates the block-level result cache end to end on the
// repeated-selective-query workload the adaptive experiment already uses
// (it would hit the cache 100%, as the ROADMAP notes):
//
//   - job 1 runs cold and populates the cache (one entry per block);
//   - job 2 is identical and answers its blocks from the cache — no block
//     reads, no record-reader or map CPU, measurably lower task work;
//   - from job `cacheAdaptiveFrom` on, an adaptive indexer builds: its
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
// splits is unaffected by caching; ExpDispatch's cache-hot scenario prices
// the packed splits that remove it).

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
	Blocks       int // blocks processed by the job's tasks
	HitBlocks    int // blocks answered from the cache
	HitRate      float64
	Rows         int
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
	Workload    Workload
	Budget      int64
	OfferRate   float64
	TotalBlocks int
	// BytesSaved is the cumulative data+index bytes hits avoided reading
	// (real measured bytes, unscaled).
	BytesSaved int64
	Jobs       []CacheJob
}

// ExpCache runs `jobs` identical jobs (at least cacheAdaptiveFrom) with
// the result cache at qcache.DefaultBudget. The jobs before
// cacheAdaptiveFrom run on an observe-only indexer, the rest on one at
// offerRate, so its replica replacements exercise invalidation.
func (r *Runner) ExpCache(w Workload, jobs int, offerRate float64) (*CacheReport, error) {
	if jobs < cacheAdaptiveFrom {
		return nil, fmt.Errorf("cache: need at least %d jobs (cold, hot, invalidate), got %d", cacheAdaptiveFrom, jobs)
	}

	// Fresh fixture: the adaptive phase mutates the cluster.
	f, err := r.freshHAILFixture(w, r.BlockRows, specs[w].sortCols)
	if err != nil {
		return nil, err
	}
	cluster := f.cluster

	q := specs[w].adaptive
	cache := qcache.New(0)
	cluster.NameNode().SetReplicaChangeHook(cache.InvalidateBlock)
	defer cluster.NameNode().SetReplicaChangeHook(nil)
	idx := adaptive.New(cluster, 0, 0)
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask, Cache: cache}

	rep := &CacheReport{
		Workload:    w,
		Budget:      cache.Stats().Budget,
		OfferRate:   offerRate,
		TotalBlocks: f.scale.RealBlocks,
	}
	prev := cache.Stats()
	for j := 1; j <= jobs; j++ {
		phase := "hot"
		if j == 1 {
			phase = "cold"
		}
		if j == cacheAdaptiveFrom {
			idx = adaptive.New(cluster, offerRate, 0)
			engine.PostTask = idx.AfterTask
		}
		if j >= cacheAdaptiveFrom {
			phase = "adaptive"
		}
		res, err := engine.Stream(context.Background(), &mapred.Job{
			Name: fmt.Sprintf("cache-job-%d", j), File: f.file,
			Input: &core.InputFormat{
				Cluster: cluster, Query: q, Adaptive: idx,
				Splitting: true, SplitsPerNode: SplitsPerNodePaper,
			},
		}, nil)
		if err != nil {
			return nil, err
		}
		plan := idx.LastJob()
		if plan.Err != nil {
			return nil, plan.Err
		}
		e2e, work, build := r.adaptiveJobSeconds(f, res, plan)
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
			Blocks: st.Blocks, HitBlocks: st.BlocksFromCache, HitRate: hitRate,
			Rows:          res.Rows,
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
	fig := &Figure{
		ID: "FigCache",
		Title: fmt.Sprintf("Block-level result cache, %s (budget %.0f MB, adaptive from job %d)",
			rep.Workload, float64(rep.Budget)/1e6, cacheAdaptiveFrom),
		Unit: "s / %",
	}
	var runtime, work, hits, inval Series
	runtime.Label = "runtime [s]"
	work.Label = "map work [s]"
	hits.Label = "cache hits [%]"
	inval.Label = "invalidated"
	for _, j := range rep.Jobs {
		x := fmt.Sprintf("job%d", j.Job)
		runtime.Points = append(runtime.Points, Point{x, j.Seconds})
		work.Points = append(work.Points, Point{x, j.WorkSeconds})
		hits.Points = append(hits.Points, Point{x, 100 * j.HitRate})
		inval.Points = append(inval.Points, Point{x, float64(j.Invalidations)})
	}
	fig.Series = []Series{runtime, work, hits, inval}
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
	var invalidated int64
	var rebuilt int
	for _, j := range rep.Jobs {
		invalidated += j.Invalidations
		rebuilt += j.BlocksBuilt
	}
	fmt.Fprintf(&b, "adaptive phase converted %d blocks, invalidating %d cache entries\n", rebuilt, invalidated)
	return b.String()
}
