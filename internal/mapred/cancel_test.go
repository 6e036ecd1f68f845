package mapred

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestCancelledJobDeliversNothing: the context is cancelled once task k has
// completed (from OnProgress). The job fails with an error wrapping
// context.Canceled, yield never runs, no task is claimed after the cancel
// (inline; in parallel only the tasks other workers already held finish),
// nothing is retried, the workers are gone when Stream returns and the
// cache holds exactly the blocks that completed.
func TestCancelledJobDeliversNothing(t *testing.T) {
	const k = 3
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism %d", par), func(t *testing.T) {
			c, f := buildFake(t, 4, 12, 5)
			f.sig = "f{}|p{*}"
			cache := newMapCache()
			tr := obs.NewTrace("cancel")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var progress atomic.Int32
			e := &Engine{Cluster: c, Cache: cache, Parallelism: par, OnProgress: func(done, _ int) {
				progress.Add(1)
				if done == k {
					cancel()
				}
			}}
			baseline := runtime.NumGoroutine()
			yielded := 0
			res, err := e.Stream(ctx, &Job{
				Name: "cancel", File: "/fake", Input: f, MapSig: "raw", Trace: tr,
				MapBatch: emitRaw(""),
			}, func(Chunk) bool { yielded++; return true })
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled job: result %v, error %v; want none and context.Canceled", res, err)
			}
			if yielded != 0 {
				t.Errorf("yield ran %d times for a cancelled job", yielded)
			}
			settledGoroutines(t, baseline)
			claimed := int(progress.Load())
			if claimed < k || claimed > k+par-1 || par == 1 && claimed != k {
				t.Errorf("%d tasks claimed, want %d inline, at most %d in parallel", claimed, k, k+par-1)
			}
			// One attempt per claimed task: the cancel retried nothing.
			_, byName := traceTree(t, tr)
			if got := len(byName["attempt"]); got != claimed {
				t.Errorf("%d attempts for %d claimed tasks", got, claimed)
			}
			cache.mu.Lock()
			defer cache.mu.Unlock()
			if len(cache.m) > claimed || par == 1 && len(cache.m) != k {
				t.Errorf("cache holds %d blocks after %d claimed tasks", len(cache.m), claimed)
			}
		})
	}
}

// TestCancelMidBlockCachesNothingOfIt: a cancel that lands while block 5
// is being mapped fails its task without a retry, and neither that block
// nor any later one reaches the cache or the consumer. An uncancelled
// re-run over the same cache then answers in full, in task order.
func TestCancelMidBlockCachesNothingOfIt(t *testing.T) {
	c, f := buildFake(t, 4, 12, 5)
	f.sig = "f{}|p{*}"
	cache := newMapCache()
	tr := obs.NewTrace("cancel")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := &Engine{Cluster: c, Cache: cache, Parallelism: 1}
	job := &Job{
		Name: "cancel", File: "/fake", Input: f, MapSig: "raw", Trace: tr,
		MapBatch: func(b *Batch, out Emitter) {
			for _, line := range b.Raw {
				if line == "b5-r2" {
					cancel()
				}
				out.Emit(line, "")
			}
		},
	}
	_, err := e.Stream(ctx, job, func(Chunk) bool { t.Error("yield ran for a cancelled job"); return false })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if _, byName := traceTree(t, tr); len(byName["attempt"]) != 6 {
		t.Errorf("%d attempts for tasks 0 to 5, want 6: the interrupted task was retried", len(byName["attempt"]))
	}
	cache.mu.Lock()
	for key := range cache.m {
		if key.Block >= 5 {
			t.Errorf("block %d cached after the cancel", key.Block)
		}
	}
	if len(cache.m) != 5 {
		t.Errorf("cache holds %d blocks, want blocks 0 to 4", len(cache.m))
	}
	cache.mu.Unlock()

	job.Trace = nil
	var rows []string
	res, err := e.Stream(context.Background(), job, func(chunk Chunk) bool {
		for row := range chunk.All() {
			rows = append(rows, row)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 60 || len(rows) != 60 || rows[0] != "b0-r0" || rows[59] != "b11-r4" {
		t.Errorf("re-run: Rows %d, %d delivered (%q … %q), want 60 from b0-r0 to b11-r4", res.Rows, len(rows), rows[0], rows[len(rows)-1])
	}
	if st := res.TotalStats(); st.BlocksFromCache != 5 {
		t.Errorf("re-run served %d blocks from the cache, want the 5 the cancelled run completed", st.BlocksFromCache)
	}
}

// TestStreamStopsDeliveryNotTheJob: a yield that returns false sees no
// further chunk, and the result still counts the whole job. Run's Output
// is Stream's chunks, concatenated.
func TestStreamStopsDeliveryNotTheJob(t *testing.T) {
	c, f := buildFake(t, 4, 6, 4)
	e := &Engine{Cluster: c, Parallelism: 2}
	job := &Job{Name: "stop", File: "/fake", Input: f, MapBatch: emitRaw("")}
	calls := 0
	res, err := e.Stream(context.Background(), job, func(Chunk) bool {
		calls++
		return calls < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || res.Rows != 24 || len(res.Tasks) != 6 || res.Output != nil {
		t.Errorf("yield called %d times, Rows %d, %d tasks, Output %d; want 2, 24, 6, nil", calls, res.Rows, len(res.Tasks), len(res.Output))
	}
	var streamed []KV
	if _, err := e.Stream(context.Background(), job, func(chunk Chunk) bool {
		streamed = appendRows(streamed, chunk)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	whole, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Rows != len(whole.Output) || len(whole.Output) != len(streamed) || cap(whole.Output) != len(whole.Output) {
		t.Fatalf("Run: Rows %d, %d KVs (cap %d); Stream delivered %d", whole.Rows, len(whole.Output), cap(whole.Output), len(streamed))
	}
	for i := range streamed {
		if streamed[i] != whole.Output[i] {
			t.Fatalf("KV %d: Stream %v, Run %v", i, streamed[i], whole.Output[i])
		}
	}
}
