package mapred

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdfs"
	"repro/internal/obs"
)

// TaskReport is the outcome of one map task.
type TaskReport struct {
	TaskID   int
	Split    Split       // the split as finally executed (repacked on failover)
	Node     hdfs.NodeID // node the task finally ran on
	Stats    TaskStats
	Attempts int  // 1 = first attempt succeeded
	Local    bool // ran on one of the split's preferred locations
	// Repacks counts the times the split's dead replica pins were
	// re-resolved via Split.Fallback (packed-split failover).
	Repacks int
	// BlocksRerun counts block executions repeated after a mid-split
	// failure; 0 means every block of the split ran exactly once.
	BlocksRerun int
}

// JobResult is the full outcome of a job run.
type JobResult struct {
	// Output is the blocks' rows written into one slice, in task order.
	// Only Run fills it; Stream hands the chunks to its caller instead.
	Output []KV
	// Rows is the number of rows the job emitted: len(Output) after Run,
	// the summed chunk lengths Stream had to deliver.
	Rows       int
	Tasks      []TaskReport
	SplitPhase TaskStats // I/O performed during the split phase
	// ReExecuted counts task attempts lost to node failures and retried.
	ReExecuted int
	// Repacked counts tasks whose packed split had dead replica pins
	// re-resolved mid-job (Split.Fallback); BlocksRerun sums the block
	// executions those failovers repeated. Together they bound the cost of
	// a node loss under packed scan splits: the job re-resolves only the
	// affected blocks instead of rescanning whole splits.
	Repacked    int
	BlocksRerun int
}

// Len returns the number of rows the job emitted, Rows.
func (r *JobResult) Len() int { return r.Rows }

// TotalStats sums all task stats.
func (r *JobResult) TotalStats() TaskStats {
	var total TaskStats
	for _, t := range r.Tasks {
		total.Add(t.Stats)
	}
	return total
}

// localityTolerance is the load imbalance the scheduler accepts before
// trading locality for a free slot.
const localityTolerance = 2

// Engine executes jobs against a cluster. It plays the roles of JobClient
// (split phase), JobTracker (locality-aware assignment, failure handling)
// and TaskTrackers (task execution).
type Engine struct {
	Cluster *hdfs.Cluster
	// Parallelism bounds concurrent task execution; 0 = GOMAXPROCS, 1 runs
	// the job inline on the caller, in task order. This is an
	// execution-speed knob, not a model parameter (sim models slot
	// parallelism analytically).
	Parallelism int
	// OnProgress, if set, is called after every completed task with
	// (done, total). The fault-tolerance experiment uses it to kill a
	// node at 50% progress (§6.4.3). Like PostTask, it runs under the
	// task's panic boundary: a panic in it fails the job.
	OnProgress func(done, total int)
	// PostTask, if set, runs on the worker goroutine after each
	// successful task, while the task still occupies its execution slot.
	// The adaptive indexer hooks in here to sort and index blocks the
	// task just scanned, so index creation overlaps the execution of the
	// job's remaining tasks instead of serializing after it.
	PostTask func(TaskReport)
	// Cache, if set, is consulted per block before a map task reads it:
	// a hit replays the block's cached map output and skips the read
	// entirely, a miss computes and admits it. Caching only engages for
	// jobs that declare a MapSig and whose input format implements
	// QuerySigner; all other jobs run unchanged.
	Cache ResultCache
	// Obs, if set, receives engine metrics: task latency and scheduling
	// wait histograms plus dispatch/failover/namenode-op counters. Left
	// nil, the engine records nothing and the hot path performs zero
	// additional allocations.
	Obs *obs.Registry
}

// engineMetrics holds the engine's registry handles, resolved once per
// job. A nil *engineMetrics (no registry bound) disables all recording.
type engineMetrics struct {
	jobs          *obs.Counter
	tasks         *obs.Counter
	tasksLocal    *obs.Counter
	reExecuted    *obs.Counter
	repackEvents  *obs.Counter
	tasksRepacked *obs.Counter
	blocksRerun   *obs.Counter
	nnOps         *obs.Counter
	blocks        *obs.Counter
	blocksCached  *obs.Counter
	taskSeconds   *obs.Histogram
	taskWait      *obs.Histogram
}

func (e *Engine) metrics() *engineMetrics {
	if e.Obs == nil {
		return nil
	}
	return &engineMetrics{
		jobs:          e.Obs.Counter("engine.jobs"),
		tasks:         e.Obs.Counter("engine.tasks"),
		tasksLocal:    e.Obs.Counter("engine.tasks_local"),
		reExecuted:    e.Obs.Counter("engine.attempts_reexecuted"),
		repackEvents:  e.Obs.Counter("engine.repack_events"),
		tasksRepacked: e.Obs.Counter("engine.tasks_repacked"),
		blocksRerun:   e.Obs.Counter("engine.blocks_rerun"),
		nnOps:         e.Obs.Counter("engine.namenode_ops"),
		blocks:        e.Obs.Counter("engine.blocks"),
		blocksCached:  e.Obs.Counter("engine.blocks_from_cache"),
		taskSeconds:   e.Obs.Histogram("engine.task_seconds"),
		taskWait:      e.Obs.Histogram("engine.task_wait_seconds"),
	}
}

// cacheContext is the per-job resolution of the result-cache wiring: the
// key material (file, query signature, map identity). nil means the job
// runs uncached.
type cacheContext struct {
	cache    ResultCache
	nn       *hdfs.NameNode
	file     string
	querySig string
	mapSig   string
}

// cacheContext decides whether this job's per-block results are cacheable
// and assembles the context if so.
func (e *Engine) cacheContext(job *Job) *cacheContext {
	mapSig := job.MapSig
	if job.MapBatch == nil {
		mapSig = PassthroughSig
	}
	if e.Cache == nil || mapSig == "" {
		return nil
	}
	signer, ok := job.Input.(QuerySigner)
	if !ok {
		return nil
	}
	sig, ok := signer.QuerySignature()
	if !ok {
		return nil
	}
	return &cacheContext{
		cache: e.Cache, nn: e.Cluster.NameNode(),
		file: job.File, querySig: sig, mapSig: mapSig,
	}
}

// blockKey is block b's cache key at its current generation, with no
// replica: the one place the job's key is assembled.
func (cc *cacheContext) blockKey(b hdfs.BlockID) CacheKey {
	return CacheKey{
		File: cc.file, Block: b, Gen: cc.nn.Generation(b),
		Query: cc.querySig, MapSig: cc.mapSig,
	}
}

// key builds the cache key for the split's i-th block executing on runOn.
// The replica component pins the node whose stored order the result
// reflects: the block's pin when the planner chose one (index scans,
// packed splits), otherwise the executing node (whose local replica the
// reader prefers).
func (cc *cacheContext) key(split Split, i int, runOn hdfs.NodeID) CacheKey {
	k := cc.blockKey(split.Blocks[i])
	if k.Replica = split.Pin(i); k.Replica == hdfs.NoReplica {
		k.Replica = runOn
	}
	return k
}

// probe is the split phase's packing probe for the job: the replica node
// the cache holds a block's output at, if any. nil when the job runs
// uncached.
func (cc *cacheContext) probe() func(hdfs.BlockID) (hdfs.NodeID, bool) {
	if cc == nil {
		return nil
	}
	return func(b hdfs.BlockID) (hdfs.NodeID, bool) { return cc.cache.CachedReplica(cc.blockKey(b)) }
}

// Stream executes the job — the split phase, then the map phase with
// locality scheduling and failure recovery — and then hands each block's
// non-empty chunk to yield, in task order. yield runs on the caller's
// goroutine, once the whole map phase has succeeded; a chunk is read-only
// and valid only during the call (it is the cache's own, or keeps its row
// ends in a pooled buffer the pool gets back when Stream returns), so a
// consumer keeps rows, not the chunk: a row is a substring of the chunk's
// text and stays valid. yield returning false stops the delivery, not the
// job: the result's counts, Rows among them, are the whole job's. A nil
// yield delivers nothing.
//
// ctx is checked by the workers before they claim a task and before and
// after each block. Once it is done no task is claimed and no block begun
// or cached, the tasks in flight stop at their next block without a retry
// (a cancellation is not a node fault), and Stream returns an error that
// wraps ctx.Err() without calling yield.
//
// When job.Trace is set, Stream records a span tree whose root ("run") has
// contiguous phase children — plan, schedule, map, assemble — so the
// phases' durations sum to the job's wall-clock; per-task spans (with
// wait/attempt/posttask children) live under "map" on their own trace
// lanes, and the delivery runs under "assemble". When e.Obs is set, task
// latencies and dispatch/failover counters land in the registry. Both are
// independent and both default to off.
func (e *Engine) Stream(ctx context.Context, job *Job, yield func(Chunk) bool) (*JobResult, error) {
	return e.run(ctx, job, func(_ *JobResult, chunks []Chunk) {
		if yield == nil {
			return
		}
		for _, c := range chunks {
			if len(c.segs) > 0 && !yield(c) {
				return
			}
		}
	})
}

// run is the job body of Stream and Run: the split phase, the schedule and
// the map phase, then deliver with the job's result and every block's
// chunk in task order, under the assemble span. deliver is called only
// when every task succeeded and ctx is not done, and the chunks are valid
// only until it returns.
func (e *Engine) run(ctx context.Context, job *Job, deliver func(res *JobResult, chunks []Chunk)) (*JobResult, error) {
	tr := job.Trace
	runSpan := tr.StartSpan("run", "job", 0, obs.Span{})
	defer runSpan.End()
	runSpan.SetStr("job", job.Name)
	m := e.metrics()

	// The split phase plans around what the cache already holds.
	cc := e.cacheContext(job)
	planSpan := tr.StartSpan("plan", "phase", 0, runSpan)
	splits, splitStats, err := job.Input.Splits(job.File, cc.probe())
	if err != nil {
		planSpan.End()
		return nil, fmt.Errorf("mapred: split phase for %q: %v", job.Name, err)
	}
	res := &JobResult{SplitPhase: splitStats}
	planSpan.SetInt("splits", int64(len(splits)))
	planSpan.SetInt("namenode_ops", int64(res.SplitPhase.NameNodeOps))
	planSpan.End()

	// The JobTracker assigns each split to a computing node, preferring
	// the split's own locations (data locality, §4.2) and balancing load
	// across trackers.
	schedSpan := tr.StartSpan("schedule", "phase", 0, runSpan)
	assignments := e.schedule(splits)
	schedSpan.SetInt("tasks", int64(len(splits)))
	schedSpan.End()

	// One slot per task. Every task's span opens with the map phase, so its
	// wait child (and engine.task_wait_seconds) measures map-phase start →
	// claim; both are zero Spans (inert, allocation-free) when tracing is
	// off. A task's output is one chunk per block, in split order; the
	// chunks of all tasks are windows of one array sized by the job's block
	// count, and so are the buffers its computed blocks were built in, one
	// slot per block. The buffers go back to the pool when the job returns:
	// after the delivery, or when the job has failed.
	tasks := make([]struct {
		tsp, wsp obs.Span
		report   TaskReport
		chunks   []Chunk
		bufs     []*blockBuf
		err      error
	}, len(splits))
	nblocks := 0
	for _, s := range splits {
		nblocks += len(s.Blocks)
	}
	chunks, bufs := make([]Chunk, nblocks), make([]*blockBuf, nblocks)
	off := 0
	for i, s := range splits {
		n := len(s.Blocks)
		tasks[i].chunks, tasks[i].bufs = chunks[off:off:off+n], bufs[off:off+n:off+n]
		off += n
	}
	mapSpan := tr.StartSpan("map", "phase", 0, runSpan)
	if tr.Enabled() {
		for i := range tasks {
			tasks[i].tsp = tr.StartSpan(fmt.Sprintf("task %d", i), "task", i+1, mapSpan)
			tasks[i].wsp = tr.StartSpan("wait", "task", i+1, tasks[i].tsp)
		}
	}
	var mapStart time.Time
	if m != nil {
		mapStart = time.Now() //lint:allow wallclock start stamp shared by the workers, consumed only by taskWait.Observe
	}

	// The dispatcher: workers claim task indices in order from one counter
	// until none is left, or until a task has failed or ctx is done — the
	// job has then failed, and the tasks no worker claimed never run. The
	// caller is one of the workers, so Parallelism 1 runs the whole job
	// inline, in task order, on no goroutine.
	var next, done atomic.Int64
	var failed atomic.Bool
	work := func() {
		bm := newBlockMapper(job)
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			t := &tasks[i]
			t.wsp.End()
			var execStart time.Time
			if m != nil {
				m.taskWait.Observe(time.Since(mapStart))
				execStart = time.Now()
			}
			t.report, t.chunks, t.err = e.runTask(ctx, job, cc, bm, i, splits[i], assignments[i], t.tsp, t.chunks, t.bufs)
			if m != nil {
				m.taskSeconds.Observe(time.Since(execStart))
			}
			if t.err == nil && e.PostTask != nil {
				ptSpan := tr.StartSpan("posttask", "adaptive", i+1, t.tsp)
				t.err = e.hook(i, "PostTask", t.report.Node, func() { e.PostTask(t.report) })
				ptSpan.End()
			}
			t.tsp.End()
			if t.err != nil {
				failed.Store(true)
			}
			if e.OnProgress != nil {
				err := e.hook(i, "OnProgress", t.report.Node, func() { e.OnProgress(int(done.Add(1)), len(tasks)) })
				if err != nil && t.err == nil {
					t.err = err
					failed.Store(true)
				}
			}
		}
	}
	par := e.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := min(par, len(tasks)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// Every task below the counter was claimed and has run; the ones above
	// it were left when a task failed or ctx was done, and their spans end
	// unclaimed.
	for i := min(int(next.Load()), len(tasks)); i < len(tasks); i++ {
		tasks[i].wsp.End()
		tasks[i].tsp.End()
	}
	mapSpan.End()

	// The buffers go back to the pool inside the assemble span, whose time
	// they take: one cleared segment header per batch.
	assembleSpan := tr.StartSpan("assemble", "phase", 0, runSpan)
	defer assembleSpan.End()
	defer releaseBufs(bufs)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapred: job %q cancelled: %w", job.Name, err)
	}
	res.Tasks = make([]TaskReport, 0, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if t.err != nil {
			return nil, t.err
		}
		res.Tasks = append(res.Tasks, t.report)
		if t.report.Attempts > 1 {
			res.ReExecuted += t.report.Attempts - 1
		}
		if t.report.Repacks > 0 {
			res.Repacked++
		}
		res.BlocksRerun += t.report.BlocksRerun
		for _, c := range t.chunks {
			res.Rows += c.Len()
		}
	}
	if m != nil {
		m.recordJob(res)
	}
	// Every task succeeded, so every block's chunk sits in its slot of
	// chunks, in task order: the cache's own, which nothing downstream of
	// here may write through, or windows of block buffers the pool gets
	// back when the job returns.
	deliver(res, chunks)
	return res, nil
}

// recordJob folds a completed job's result into the registry counters.
func (m *engineMetrics) recordJob(res *JobResult) {
	m.jobs.Inc()
	m.tasks.Add(int64(len(res.Tasks)))
	m.reExecuted.Add(int64(res.ReExecuted))
	m.tasksRepacked.Add(int64(res.Repacked))
	m.blocksRerun.Add(int64(res.BlocksRerun))
	nnOps := res.SplitPhase.NameNodeOps
	for _, t := range res.Tasks {
		if t.Local {
			m.tasksLocal.Inc()
		}
		m.repackEvents.Add(int64(t.Repacks))
		m.blocks.Add(int64(t.Stats.Blocks))
		m.blocksCached.Add(int64(t.Stats.BlocksFromCache))
		nnOps += t.Stats.NameNodeOps
	}
	m.nnOps.Add(int64(nnOps))
}

// schedule assigns each split a node, preferring the split's locations and
// spreading load evenly over the trackers (the paper's locality-and-
// availability policy, §4.2). Like Hadoop's FIFO scheduler, it gives up
// locality when the split's trackers are clearly busier than an idle one.
func (e *Engine) schedule(splits []Split) []hdfs.NodeID {
	loads := make(map[hdfs.NodeID]int)
	alive := make(map[hdfs.NodeID]bool)
	for _, n := range e.Cluster.AliveNodes() {
		alive[n] = true
		loads[n] = 0
	}
	leastLoaded := func() hdfs.NodeID {
		best := hdfs.NodeID(-1)
		for n := range loads {
			if best == -1 || loads[n] < loads[best] ||
				(loads[n] == loads[best] && n < best) {
				best = n
			}
		}
		return best
	}
	out := make([]hdfs.NodeID, len(splits))
	for i, s := range splits {
		best := hdfs.NodeID(-1)
		for _, loc := range s.Locations {
			if !alive[loc] {
				continue
			}
			if best == -1 || loads[loc] < loads[best] {
				best = loc
			}
		}
		if best == -1 {
			// No preferred location is alive: availability-only.
			best = leastLoaded()
		} else if idle := leastLoaded(); loads[best]-loads[idle] > localityTolerance {
			// A clearly idler remote tracker steals the task.
			best = idle
		}
		loads[best]++
		out[i] = best
	}
	return out
}

// blockMapper maps the batches of one block into that block's buffer,
// buf, which is the map function's Emitter. A worker builds one for the
// job and points it at each block it computes, so a task builds no
// closures of its own. A passthrough job hands each batch's Lines over
// whole: only the row ends are copied.
type blockMapper struct {
	buf     *blockBuf
	consume func(*Batch)
}

func newBlockMapper(job *Job) *blockMapper {
	m := new(blockMapper)
	if job.MapBatch == nil {
		m.consume = func(b *Batch) { m.buf.EmitLines(b.Lines(',')) }
	} else {
		m.consume = func(b *Batch) { job.MapBatch(b, m.buf) }
	}
	return m
}

// runTask executes one map task: one loop over the split's blocks, the
// same for every input format and every split size. A task's output is the
// list of its blocks' outputs, appended to chunks (the task's empty window
// of the job's chunk array) in split order. Per block the loop probes the
// result cache when the job is cacheable — a hit's chunk is the cache's
// own, shared and read-only, not a copy — and otherwise opens the split
// narrowed to that block and maps its records, through the worker's bm,
// into the block's buffer, bufs[pos], taken from the pool on first use;
// the chunk is a cap-clamped window of it. A reader that fails mid-block
// has its chunk dropped, and its buffer is reset before the block is read
// again.
//
// Progress is a cursor: blocks [0,pos) are done and chunks holds their
// output, so the result is byte-identical to a whole-split read. When the
// node or a replica it reads dies mid-task the attempt fails and the task
// is retried (Hadoop's re-execution after the expiry interval): dead
// replica pins are re-resolved via Split.Fallback — which never reorders
// Blocks — and the retry resumes at pos, so a node loss costs only the
// blocks not yet done. started is the high-water mark of blocks begun; a
// block begun twice is one BlocksRerun. A done ctx is no node fault: the
// attempt stops before the next block, or drops the block it interrupted,
// and the task fails without a retry.
//
// A panic under this function — map function, batch accessor, decoder —
// is the task boundary's to catch: it fails the job with an error naming
// task, block and executing node instead of killing the process, and the
// failed block's output never reaches the cache.
func (e *Engine) runTask(ctx context.Context, job *Job, cc *cacheContext, bm *blockMapper, taskID int, split Split, node hdfs.NodeID, tsp obs.Span, chunks []Chunk, bufs []*blockBuf) (report TaskReport, out []Chunk, err error) {
	const maxAttempts = 4
	tr := job.Trace
	var (
		stats          TaskStats
		pos, started   int
		repacks, rerun int
		runOn          = node
	)
	defer func() {
		if p := recover(); p != nil {
			where := "after its last block"
			if pos < len(split.Blocks) {
				where = fmt.Sprintf("block %d", split.Blocks[pos])
			}
			report, out = TaskReport{}, nil
			err = e.taskPanic(taskID, where, runOn, p)
		}
	}()

	// attempt runs the split from the cursor to its end on runOn.
	attempt := func() error {
		asp := tr.StartSpan("attempt", "task", taskID+1, tsp)
		defer asp.End()
		asp.SetInt("node", int64(runOn))
		for ; pos < len(split.Blocks); pos++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if pos < started {
				rerun++
			}
			started = pos + 1
			var key CacheKey
			if cc != nil {
				// The generation is read once and used for both Get and
				// Put: if a concurrent replica change bumps it mid-read, the
				// admitted entry is keyed at the old generation and simply
				// never found again.
				key = cc.key(split, pos, runOn)
				if hit, _, ok := cc.cache.Get(key); ok {
					tr.Count("qcache.block_hit", 1)
					chunks = append(chunks, hit)
					stats.Blocks++
					stats.BlocksFromCache++
					continue
				}
				tr.Count("qcache.block_miss", 1)
			}
			buf := bufs[pos]
			if buf == nil {
				buf = blockBufs.Get().(*blockBuf)
				bufs[pos] = buf
			}
			buf.reset() // a failed attempt's partial output
			bm.buf = buf
			block := split
			block.Blocks = split.Blocks[pos : pos+1 : pos+1]
			if split.Pins != nil {
				block.Pins = split.Pins[pos : pos+1 : pos+1]
			}
			rr, err := job.Input.Open(block, runOn)
			var bstats TaskStats
			if err == nil {
				bstats, err = rr.ReadBatches(bm.consume)
			}
			if err == nil {
				err = ctx.Err() // a block the cancel interrupted is neither cached nor kept
			}
			if err != nil {
				return err
			}
			chunk := buf.chunk()
			if cc != nil && cc.cache.PutChunk(key, chunk, bstats) {
				tr.Count("qcache.block_put", 1)
			}
			chunks = append(chunks, chunk)
			stats.Add(bstats)
		}
		return nil
	}

	var lastErr error
	for n := 1; n <= maxAttempts; n++ {
		// Packed-split failover: if any pinned replica node has died —
		// whether mid-task or between the split phase and now — re-resolve
		// the affected blocks' replicas via the namenode instead of
		// retrying against a pin that can never be read again.
		var repinned int
		if split, repinned = split.Fallback(e.Cluster.NameNode(), e.nodeAlive); repinned > 0 {
			repacks++
			tr.Instant("repack", "task", taskID+1, tsp)
			tr.Count("engine.blocks_repinned", int64(repinned))
		}
		if runOn = node; !e.nodeAlive(runOn) {
			if runOn = e.pickAliveFallback(split); runOn == -1 {
				return TaskReport{}, nil, fmt.Errorf("mapred: no alive node for task %d", taskID)
			}
		}
		if lastErr = attempt(); lastErr != nil {
			if ctx.Err() != nil {
				return TaskReport{}, nil, lastErr // a cancellation is not a node fault
			}
			continue
		}
		var outBytes int64
		for _, c := range chunks {
			outBytes += c.outputBytes()
		}
		stats.OutputBytes = outBytes
		local := false
		for _, loc := range split.Locations {
			if loc == runOn {
				local = true
				break
			}
		}
		return TaskReport{
			TaskID:      taskID,
			Split:       split,
			Node:        runOn,
			Stats:       stats,
			Attempts:    n,
			Local:       local,
			Repacks:     repacks,
			BlocksRerun: rerun,
		}, chunks, nil
	}
	return TaskReport{}, nil, fmt.Errorf("mapred: task %d failed after %d attempts: %v", taskID, maxAttempts, lastErr)
}

// releaseBufs returns a job's block buffers to the pool, reset — a failed
// block's partial output included. A chunk handed to
// ResultCache.PutChunk was cloned by it; nothing else outlives the job.
func releaseBufs(bufs []*blockBuf) {
	for _, b := range bufs {
		if b != nil {
			b.reset()
			blockBufs.Put(b)
		}
	}
}

// taskPanic is the error a panic caught at the task boundary fails the job
// with, naming the task, where in it the panic struck and the node it ran
// on.
func (e *Engine) taskPanic(taskID int, where string, node hdfs.NodeID, p any) error {
	e.Obs.Counter("engine.task_panics").Inc()
	return fmt.Errorf("mapred: task %d %s on node %d panicked: %v", taskID, where, node, p)
}

// hook runs one of the per-task callbacks (PostTask, OnProgress) on the
// task's worker under the same boundary as the task itself: a panic in it
// fails the job instead of killing the process.
func (e *Engine) hook(taskID int, name string, node hdfs.NodeID, fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = e.taskPanic(taskID, name, node, p)
		}
	}()
	fn()
	return nil
}

// nodeAlive reports whether the node exists and is up.
func (e *Engine) nodeAlive(n hdfs.NodeID) bool {
	dn, err := e.Cluster.DataNode(n)
	return err == nil && dn.Alive()
}

func (e *Engine) pickAliveFallback(split Split) hdfs.NodeID {
	for _, loc := range split.Locations {
		if e.nodeAlive(loc) {
			return loc
		}
	}
	alive := e.Cluster.AliveNodes()
	if len(alive) == 0 {
		return -1
	}
	return alive[0]
}
