package mapred

import (
	"fmt"
	"runtime"
	"slices"
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
	Output     []KV // the blocks' chunks, in task order
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
// Run. A nil *engineMetrics (no registry bound) disables all recording.
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
	if e.Cache == nil || job.MapSig == "" {
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
		file: job.File, querySig: sig, mapSig: job.MapSig,
	}
}

// key builds the cache key for one block of a split executing on runOn.
// The replica component pins the node whose stored order the result
// reflects: the split's pinned replica when the scheduler chose one (index
// scans), otherwise the executing node (whose local replica the reader
// prefers).
func (cc *cacheContext) key(split Split, b hdfs.BlockID, runOn hdfs.NodeID) CacheKey {
	replica, ok := split.Replica[b]
	if !ok {
		replica = runOn
	}
	return CacheKey{
		File: cc.file, Block: b, Gen: cc.nn.Generation(b),
		Query: cc.querySig, MapSig: cc.mapSig, Replica: replica,
	}
}

// Run executes the job: the split phase, then the map phase with locality
// scheduling and failure recovery, then the assembly of the blocks'
// chunks into the job's output.
//
// When job.Trace is set, Run records a span tree whose root ("run") has
// contiguous phase children — plan, schedule, map, assemble — so
// the phases' durations sum to the job's wall-clock; per-task spans (with
// wait/attempt/posttask children) live under "map" on their own trace
// lanes. When e.Obs is set, task latencies and dispatch/failover counters
// land in the registry. Both are independent and both default to off.
func (e *Engine) Run(job *Job) (*JobResult, error) {
	if job.Map == nil && job.MapBatch == nil {
		return nil, fmt.Errorf("mapred: job %q has no map function", job.Name)
	}
	tr := job.Trace
	m := e.metrics()
	runSpan := tr.StartSpan("run", "job", 0, obs.Span{})
	runSpan.SetStr("job", job.Name)

	planSpan := tr.StartSpan("plan", "phase", 0, runSpan)
	splits, splitStats, err := job.Input.SplitsWithStats(job.File)
	if err != nil {
		planSpan.End()
		runSpan.End()
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
	cc := e.cacheContext(job)

	// One slot per task. Every task's span opens with the map phase, so its
	// wait child (and engine.task_wait_seconds) measures map-phase start →
	// claim; both are zero Spans (inert, allocation-free) when tracing is
	// off. A task's output is one chunk per block, in split order; the
	// chunks of all tasks are windows of one array sized by the job's block
	// count.
	tasks := make([]struct {
		tsp, wsp obs.Span
		report   TaskReport
		chunks   [][]KV
		err      error
	}, len(splits))
	nblocks := 0
	for _, s := range splits {
		nblocks += len(s.Blocks)
	}
	free := make([][]KV, nblocks)
	for i, s := range splits {
		n := len(s.Blocks)
		tasks[i].chunks, free = free[:0:n], free[n:]
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
	// until none is left. The caller is one of them, so Parallelism 1 runs
	// the whole job inline, in task order, on no goroutine.
	var next, done atomic.Int64
	work := func() {
		for {
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
			t.report, t.chunks, t.err = e.runTask(job, cc, i, splits[i], assignments[i], t.tsp, t.chunks)
			if m != nil {
				m.taskSeconds.Observe(time.Since(execStart))
			}
			if t.err == nil && e.PostTask != nil {
				ptSpan := tr.StartSpan("posttask", "adaptive", i+1, t.tsp)
				t.err = e.hook(i, "PostTask", t.report.Node, func() { e.PostTask(t.report) })
				ptSpan.End()
			}
			t.tsp.End()
			if e.OnProgress != nil {
				err := e.hook(i, "OnProgress", t.report.Node, func() { e.OnProgress(int(done.Add(1)), len(tasks)) })
				if t.err == nil {
					t.err = err
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
	mapSpan.End()

	assembleSpan := tr.StartSpan("assemble", "phase", 0, runSpan)
	// The one place KV headers are copied: the chunks may be the cache's own
	// slices, which nothing downstream of here may write through.
	outLen := 0
	for i := range tasks {
		for _, c := range tasks[i].chunks {
			outLen += len(c)
		}
	}
	mapOut := make([]KV, 0, outLen)
	res.Tasks = make([]TaskReport, 0, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if t.err != nil {
			assembleSpan.End()
			runSpan.End()
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
			mapOut = append(mapOut, c...)
		}
	}
	if m != nil {
		m.recordJob(res)
	}
	res.Output = mapOut
	assembleSpan.End()
	runSpan.End()
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

// runTask executes one map task: one loop over the split's blocks, the
// same for every input format and every split size. A task's output is the
// list of its blocks' outputs, appended to chunks (the task's empty window
// of the job's chunk array) in split order. Per block the loop probes the
// result cache when the job is cacheable — a hit's chunk is the cache's own
// slice, shared and read-only, not a copy — and otherwise opens the split
// narrowed to that block and maps its records into a fresh chunk; a reader
// that fails mid-block has its chunk dropped.
//
// Progress is a cursor: blocks [0,pos) are done and chunks holds their
// output, so the result is byte-identical to a whole-split read. When the
// node or a replica it reads dies mid-task the attempt fails and the task
// is retried (Hadoop's re-execution after the expiry interval): dead
// replica pins are re-resolved via Split.Fallback — which never reorders
// Blocks — and the retry resumes at pos, so a node loss costs only the
// blocks not yet done. started is the high-water mark of blocks begun; a
// block begun twice is one BlocksRerun.
//
// A panic under this function — map function, batch accessor, decoder —
// is the task boundary's to catch: it fails the job with an error naming
// task, block and executing node instead of killing the process, and the
// failed block's output never reaches the cache.
func (e *Engine) runTask(job *Job, cc *cacheContext, taskID int, split Split, node hdfs.NodeID, tsp obs.Span, chunks [][]KV) (report TaskReport, out [][]KV, err error) {
	const maxAttempts = 4
	tr := job.Trace
	var (
		stats          TaskStats
		pos, started   int
		repacks, rerun int
		runOn          = node
		kvs            []KV // the chunk of the block being computed
	)
	// A block's chunk is sized once, to the records its reader expects the
	// block to deliver, when a batch would not fit and the estimate covers
	// it. Past the estimate — a map that emits several KVs per record, a
	// reader that sets no Expect — a full chunk doubles: append's own growth
	// of a large slice, a quarter at a time, would allocate five times the
	// block's final output.
	reserve := func(b *Batch) {
		if need := len(kvs) + b.NumRows(); need > cap(kvs) && b.Expect >= need {
			kvs = append(make([]KV, 0, b.Expect), kvs...)
		}
	}
	emit := func(k, v string) {
		if len(kvs) == cap(kvs) {
			kvs = slices.Grow(kvs, max(len(kvs), 64))
		}
		kvs = append(kvs, KV{k, v})
	}
	// consume maps one batch: whole, after reserve has sized the block's
	// chunk by it, for a MapBatch job; record by record for a Map job.
	var consume func(*Batch)
	if job.MapBatch != nil {
		consume = func(b *Batch) {
			reserve(b)
			job.MapBatch(b, emit)
		}
	} else {
		mapRecord := func(r Record) { job.Map(r, emit) }
		consume = func(b *Batch) { b.Each(mapRecord) }
	}
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
				key = cc.key(split, split.Blocks[pos], runOn)
				if ckvs, _, ok := cc.cache.Get(key); ok {
					tr.Count("qcache.block_hit", 1)
					chunks = append(chunks, ckvs)
					stats.Blocks++
					stats.BlocksFromCache++
					continue
				}
				tr.Count("qcache.block_miss", 1)
			}
			kvs = nil
			block := split
			block.Blocks = split.Blocks[pos : pos+1 : pos+1]
			rr, err := job.Input.Open(block, runOn)
			var bstats TaskStats
			if err == nil {
				bstats, err = rr.ReadBatches(consume)
			}
			if err != nil {
				return err
			}
			if cc != nil && cc.cache.Put(key, kvs, bstats) {
				tr.Count("qcache.block_put", 1)
			}
			chunks = append(chunks, kvs)
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
		if e.deadPins(split) > 0 {
			var repinned int
			split, repinned = split.Fallback(e.Cluster.NameNode(), e.nodeAlive)
			if repinned > 0 {
				repacks++
				tr.Instant("repack", "task", taskID+1, tsp)
				tr.Count("engine.blocks_repinned", int64(repinned))
			}
		}
		if runOn = node; !e.nodeAlive(runOn) {
			if runOn = e.pickAliveFallback(split); runOn == -1 {
				return TaskReport{}, nil, fmt.Errorf("mapred: no alive node for task %d", taskID)
			}
		}
		if lastErr = attempt(); lastErr != nil {
			continue
		}
		var outBytes int64
		for _, c := range chunks {
			for _, kv := range c {
				outBytes += int64(len(kv.Key) + len(kv.Value) + 2)
			}
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

// deadPins counts the split's blocks whose pinned replica node is dead.
func (e *Engine) deadPins(split Split) int {
	n := 0
	for _, node := range split.Replica {
		if !e.nodeAlive(node) {
			n++
		}
	}
	return n
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
