package core

import (
	"sync"
	"testing"

	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// TestSharedInputFormatSplitStats is the regression test for the shared
// split-phase accumulator: one InputFormat served to many concurrent
// Engine.Run calls must report each job's own NameNodeOps, not an
// interleaving of resets and increments from whichever calls overlapped.
// Run under -race this also proves the split phase itself is data-race
// free on a shared instance.
func TestSharedInputFormatSplitStats(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 3000, workload.UserVisitsOptions{})
	q := &query.Query{
		Filter: []query.Predicate{query.Between(workload.UVVisitDate,
			schema.DateVal(schema.MustDate("1999-01-01")),
			schema.DateVal(schema.MustDate("2000-12-31")))},
		Projection: []int{workload.UVSourceIP},
	}
	shared := &InputFormat{Cluster: cluster, Query: q, Splitting: true}
	job := func() *mapred.Job {
		return &mapred.Job{
			Name:     "shared-if",
			File:     "/uv",
			Input:    shared,
			MapBatch: workload.PassthroughMapBatch,
		}
	}
	engine := &mapred.Engine{Cluster: cluster, Parallelism: 2}

	// Solo run: the per-job ground truth (the directory is static, so
	// every run performs the identical lookup sequence).
	ref, err := engine.Run(job())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.SplitPhase.NameNodeOps
	if want <= 0 {
		t.Fatalf("reference NameNodeOps = %d, want > 0", want)
	}

	const jobs = 16
	var wg sync.WaitGroup
	got := make([]int, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := engine.Run(job())
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.SplitPhase.NameNodeOps
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("job %d: NameNodeOps = %d, want %d (stats leaked across concurrent jobs)", i, got[i], want)
		}
	}
}
