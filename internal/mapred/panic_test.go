package mapred

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// other workers, the trace and the cache survive, nothing of the failed
// block is admitted, and no task is claimed after the failure.
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
				MapBatch: func(b *Batch, out Emitter) {
					for _, line := range b.Raw {
						out.Emit(line, "1")
						if line == "b7-r2" {
							panic("bad record")
						}
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
			// The failed task stops the job: inline, the tasks before it
			// completed and no later one ran; in parallel, the other workers
			// finish only what they had claimed.
			if len(cache.m) > 11 || par == 1 && len(cache.m) != 7 {
				t.Errorf("cache holds %d blocks, want the 7 before the failed task inline, at most 11 in parallel", len(cache.m))
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
	_, err := e.Run(&Job{Name: "inline", Input: f, MapBatch: func(b *Batch, out Emitter) {
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%d goroutines during the map phase, %d before it", n, baseline)
		}
		order = append(order, b.Raw...)
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
		job := &Job{Name: "midblock", File: "/fake", Input: f, MapBatch: emitRaw("1")}
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
		for k, chunk := range cache.m {
			if chunk.Len() != 3 {
				t.Errorf("cache entry for block %d holds %d rows, want 3", k.Block, chunk.Len())
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
				res, err := e.Run(&Job{Name: "hooked", File: "/fake", Input: f, MapBatch: emitRaw("1")})
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

// readerFunc is a BatchReader made of its one method.
type readerFunc func(fn func(*Batch)) (TaskStats, error)

func (f readerFunc) ReadBatches(fn func(*Batch)) (TaskStats, error) { return f(fn) }

// stopInput fails every read of block 0 and holds every other block's read
// until release is closed, counting the ones that get through.
type stopInput struct {
	*fakeInput
	release chan struct{}
	ran     atomic.Int32
}

func (f *stopInput) Open(split Split, node hdfs.NodeID) (BatchReader, error) {
	if split.Blocks[0] == 0 {
		return readerFunc(func(func(*Batch)) (TaskStats, error) {
			return TaskStats{}, fmt.Errorf("block 0 unreadable")
		}), nil
	}
	rr, err := f.fakeInput.Open(split, node)
	return readerFunc(func(fn func(*Batch)) (TaskStats, error) {
		<-f.release
		f.ran.Add(1)
		return rr.ReadBatches(fn)
	}), err
}

// TestFailedTaskStopsTheJob: once a task has failed its last attempt no
// worker claims another. Task 0 of 12 fails at Parallelism 2 while the
// other worker is held inside its task until the failure is reported: at
// most two more tasks may run, the error names task 0, and the spans of
// the tasks nobody claimed are ended, so the trace validates.
func TestFailedTaskStopsTheJob(t *testing.T) {
	c, f := buildFake(t, 4, 12, 5)
	in := &stopInput{fakeInput: f, release: make(chan struct{})}
	var once sync.Once
	tr := obs.NewTrace("stop")
	e := &Engine{Cluster: c, Parallelism: 2, OnProgress: func(int, int) { once.Do(func() { close(in.release) }) }}
	res, err := e.Run(&Job{
		Name: "stop", File: "/fake", Input: in, Trace: tr,
		MapBatch: emitRaw(""),
	})
	if err == nil {
		t.Fatalf("job with an unreadable block succeeded: %d rows", len(res.Output))
	}
	if !strings.HasPrefix(err.Error(), "mapred: task 0 failed after 4 attempts") {
		t.Errorf("error %q does not name task 0", err)
	}
	if ran := in.ran.Load(); ran > 2 {
		t.Errorf("%d tasks ran after task 0 failed, want at most 2", ran)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("trace of a stopped job: %v", err)
	}
}
