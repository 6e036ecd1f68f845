package core

import (
	"sync"
	"testing"

	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/workload"
)

// TestConcurrentBatchStreamsSharedCache stresses the seam the -race CI
// lane exists for: two multi-threaded engines hammer the same file
// through one shared qcache, each mapping batches into its own pooled
// block buffers. Every run's output must stay byte-identical to a cold
// single-threaded reference, whether a block was computed by its engine
// or replayed from an entry the other put.
func TestConcurrentBatchStreamsSharedCache(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 5_000, workload.UserVisitsOptions{BadEvery: 800})
	bq := workload.BobQueries()[4] // 20% selectivity: many live batches per block

	newJob := func() *mapred.Job {
		return &mapred.Job{
			Name:     "race-" + bq.Name,
			File:     "/uv",
			Input:    &InputFormat{Cluster: cluster, Query: bq.Query, Splitting: true},
			MapBatch: workload.PassthroughMapBatch,
			MapSig:   workload.PassthroughMapSig,
		}
	}

	ref, err := (&mapred.Engine{Cluster: cluster, Parallelism: 1}).Run(newJob())
	if err != nil {
		t.Fatal(err)
	}

	cache := qcache.New(qcache.DefaultBudget)
	check := func(res *mapred.JobResult, who string) {
		if len(res.Output) != len(ref.Output) {
			t.Errorf("%s: emitted %d records, reference %d", who, len(res.Output), len(ref.Output))
			return
		}
		for i := range res.Output {
			if res.Output[i] != ref.Output[i] {
				t.Errorf("%s: output %d differs from reference", who, i)
				return
			}
		}
	}

	const rounds = 4
	var wg sync.WaitGroup
	for _, who := range []string{"engine A", "engine B"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &mapred.Engine{Cluster: cluster, Parallelism: 4, Cache: cache}
			for i := 0; i < rounds; i++ {
				res, err := e.Run(newJob())
				if err != nil {
					t.Errorf("%s: %v", who, err)
					return
				}
				check(res, who)
			}
		}()
	}
	wg.Wait()

	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("no cache hits across %d concurrent runs: %+v", 2*rounds, st)
	}
}
