package mapred

import (
	"fmt"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/obs"
)

// settledGoroutines polls until the goroutine count is back at or below
// baseline: a worker that has signalled its WaitGroup may not have left
// the scheduler's books yet when Run returns.
func settledGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the job: workers leaked", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestMapPanicFailsTheJob: a map function that panics on one record fails
// that job with an error naming task, block and node — the process, the
// other workers, the trace and the cache survive, and nothing of the
// failed block is admitted.
func TestMapPanicFailsTheJob(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism %d", par), func(t *testing.T) {
			c, f := buildFake(t, 4, 12, 5)
			f.sig = "f{}|p{*}"
			cache := newMapCache()
			reg := obs.NewRegistry()
			tr := obs.NewTrace("panic")
			e := &Engine{Cluster: c, Cache: cache, Parallelism: par, Obs: reg}
			baseline := runtime.NumGoroutine()
			res, err := e.Run(&Job{
				Name: "boom", File: "/fake", Input: f, MapSig: "boom", Trace: tr,
				Map: func(r Record, emit Emit) {
					emit(r.Raw, "1")
					if r.Raw == "b7-r2" {
						panic("bad record")
					}
				},
			})
			if err == nil {
				t.Fatalf("job with a panicking map function succeeded: %d rows", len(res.Output))
			}
			if want := regexp.MustCompile(`^mapred: task 7 block 7 on node \d+ panicked: bad record$`); !want.MatchString(err.Error()) {
				t.Errorf("error %q does not match %s", err, want)
			}
			settledGoroutines(t, baseline)
			if got := reg.Counter("engine.task_panics").Value(); got != 1 {
				t.Errorf("engine.task_panics = %d, want 1", got)
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("trace after a panic: %v", err)
			}
			cache.mu.Lock()
			defer cache.mu.Unlock()
			if len(cache.m) != 11 {
				t.Errorf("cache holds %d blocks, want the 11 that completed", len(cache.m))
			}
			for k := range cache.m {
				if k.Block == 7 {
					t.Errorf("failed block admitted to the cache: %+v", k)
				}
			}
		})
	}
}

// TestParallelismOneRunsInline: with one worker the caller is the worker —
// no goroutine is started and tasks complete in split order.
func TestParallelismOneRunsInline(t *testing.T) {
	c, f := buildFake(t, 4, 10, 3)
	e := &Engine{Cluster: c, Parallelism: 1}
	baseline := runtime.NumGoroutine()
	var progress []int
	e.OnProgress = func(done, total int) { progress = append(progress, done) }
	var order []string
	_, err := e.Run(&Job{Name: "inline", Input: f, Map: func(r Record, emit Emit) {
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%d goroutines during the map phase, %d before it", n, baseline)
		}
		order = append(order, r.Raw)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range progress {
		if d != i+1 {
			t.Fatalf("progress = %v, want 1..10 in order", progress)
		}
	}
	if len(order) != 30 || order[0] != "b0-r0" || order[29] != "b9-r2" {
		t.Errorf("records mapped out of split order: %v", order)
	}
}

// TestMidBlockFailureLeavesNoPartialOutput: a reader that emits its
// block's three records and then fails leaves none of them behind — the
// retry resumes at that block and the output is exact, order included.
func TestMidBlockFailureLeavesNoPartialOutput(t *testing.T) {
	for _, cached := range []bool{false, true} {
		c, f := packedFixture(t, 4, 6, 1, 2)
		f.failOnce = map[hdfs.BlockID]bool{3: true}
		f.failLate = true
		e := &Engine{Cluster: c}
		job := &Job{Name: "midblock", File: "/fake", Input: f, Map: func(r Record, emit Emit) { emit(r.Raw, "1") }}
		cache := newMapCache()
		if cached {
			f.sig, job.MapSig, e.Cache = "f{}|p{*}", "raw-count", cache
		}
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		var want []KV
		for b := 0; b < 6; b++ {
			for r := 0; r < 3; r++ {
				want = append(want, KV{fmt.Sprintf("b%d-r%d", b, r), "1"})
			}
		}
		if fmt.Sprint(res.Output) != fmt.Sprint(want) {
			t.Errorf("cached=%v: output after a mid-block failure:\n got %v\nwant %v", cached, res.Output, want)
		}
		if res.BlocksRerun != 1 || res.ReExecuted != 1 {
			t.Errorf("cached=%v: BlocksRerun=%d ReExecuted=%d, want 1, 1", cached, res.BlocksRerun, res.ReExecuted)
		}
		if st := res.TotalStats(); st.Blocks != 6 || st.RecordsDelivered != 18 {
			t.Errorf("cached=%v: stats count the failed read: %+v", cached, st)
		}
		for k, kvs := range cache.m {
			if len(kvs) != 3 {
				t.Errorf("cache entry for block %d holds %d rows, want 3", k.Block, len(kvs))
			}
		}
	}
}

// TestPostTaskPanicFailsTheJob: PostTask and OnProgress run on the worker
// after the task, and a panic in either fails the job like a map panic —
// an error naming task and node, engine.task_panics counted once, and the
// workers gone — instead of killing the process.
func TestPostTaskPanicFailsTheJob(t *testing.T) {
	for _, par := range []int{1, 2} {
		for _, hook := range []string{"PostTask", "OnProgress"} {
			t.Run(fmt.Sprintf("%s parallelism %d", hook, par), func(t *testing.T) {
				c, f := buildFake(t, 4, 12, 5)
				reg := obs.NewRegistry()
				e := &Engine{Cluster: c, Parallelism: par, Obs: reg}
				if hook == "PostTask" {
					e.PostTask = func(r TaskReport) {
						if r.TaskID == 5 {
							panic("hook failed")
						}
					}
				} else {
					e.OnProgress = func(done, total int) {
						if done == 6 {
							panic("hook failed")
						}
					}
				}
				baseline := runtime.NumGoroutine()
				res, err := e.Run(&Job{Name: "hooked", File: "/fake", Input: f, Map: func(r Record, emit Emit) { emit(r.Raw, "1") }})
				if err == nil {
					t.Fatalf("job with a panicking %s succeeded: %d rows", hook, len(res.Output))
				}
				if want := regexp.MustCompile(`^mapred: task \d+ ` + hook + ` on node \d+ panicked: hook failed$`); !want.MatchString(err.Error()) {
					t.Errorf("error %q does not match %s", err, want)
				}
				settledGoroutines(t, baseline)
				if got := reg.Counter("engine.task_panics").Value(); got != 1 {
					t.Errorf("engine.task_panics = %d, want 1", got)
				}
			})
		}
	}
}
