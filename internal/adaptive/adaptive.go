// Package adaptive implements lazy, workload-driven index creation on top
// of HAIL's static per-replica indexing — the direction the paper's own
// follow-up work (LIAH) takes §4.1's evolving-workload story — plus the
// lifecycle management that keeps it honest under a storage budget.
//
// Static HAIL fixes each replica's clustered index at upload time. When
// Bob's queries move to an attribute no replica is indexed on, every job
// pays a full scan forever. The adaptive indexer closes that gap as a
// by-product of normal job execution:
//
//  1. The HailInputFormat reports, per job, which blocks have no replica
//     indexed on the query's filter column (ObserveJob). The misses are
//     counted per (file, column). The same report is the heat signal:
//     every index-scan split an adaptive replica serves stamps that
//     replica's (file, column, block) entry, so the lifecycle manager
//     knows which replicas the current workload still uses.
//  2. A bounded fraction of the missing blocks — the offer rate — is
//     marked for conversion in this job. After a map task finishes
//     scanning such a block, the engine's PostTask hook (still holding
//     the task's execution slot, so the work overlaps the job's remaining
//     tasks) re-sorts the block on the filter column, builds the sparse
//     clustered index, and stores the reorganized replica.
//  3. The new replica is registered with the namenode, so every
//     subsequent job gets index-scan splits for that block.
//
// The offer rate bounds the first job's penalty: with rate r, job 1 pays
// roughly r times the cost of indexing the whole job, and after ~1/r
// identical jobs every block is index-scanned. A rate ≤ 0 observes demand
// and builds nothing.
//
// Offers are kept per (file, column): concurrent jobs filtering on
// different attributes share one Indexer without clobbering each other's
// in-flight offers or plan counters.
//
// A budget makes the extra storage a working set instead of a one-way
// ratchet: when a build would exceed it, the coldest adaptive replicas of
// other streams — dead-node orphans first, then least-recently-touched —
// are dropped via Cluster.DropReplica to reclaim budget, so the workload's
// *current* hot column converges while replicas built for a column the
// workload abandoned are retired. A build is denied only when nothing can
// be retired. Every drop bumps the block's replica generation and fires
// the namenode's change hook, so cached results pinned at the dropped
// replica are purged and split pinning never routes to a ghost replica.
package adaptive

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/obs"
)

// EvictedReplica records one adaptive replica the lifecycle manager
// dropped to reclaim budget.
type EvictedReplica struct {
	File   string
	Column int
	Block  hdfs.BlockID
	Node   hdfs.NodeID
	// Bytes is the budget charge the drop reclaimed.
	Bytes int64
}

// JobPlan is the adaptive plan and outcome for one (file, column) job:
// coverage seen at split time, blocks offered for conversion, and what
// the build step did.
type JobPlan struct {
	File   string
	Column int
	// Split-phase coverage for Column.
	Indexed int // blocks with an index-scan split
	Missing int // blocks that fell back to a full scan
	Offered int // missing blocks selected for conversion this job
	// Build outcomes (filled in as tasks complete).
	Built            int
	ReplicasAdded    int // stored as an additional replica
	ReplicasReplaced int // converted an unsorted replica in place
	// Skipped counts offered blocks with nowhere to put a new replica
	// (every alive node already holds one and none is unsorted) — a
	// capacity condition, not an error; they stay full-scan. Placement
	// races lost to a concurrent build or recovery land here too.
	Skipped int
	// BudgetDenied counts blocks whose conversion was refused because the
	// indexer's extra-storage budget (BudgetBytes) is exhausted and no
	// adaptive replica could be retired to make room.
	BudgetDenied int
	Failed       int
	// Eviction churn: adaptive replicas dropped to make room for this
	// plan's builds.
	Evicted         int
	EvictedBytes    int64
	EvictedReplicas []EvictedReplica
	// Real measured build volume, for the cost model.
	SortedBytes int64 // PAX bytes sorted and rewritten
	IndexBytes  int64 // index bytes created
	StoredBytes int64 // total replica bytes stored (frame + pax + index)

	// observedAt is the indexer's job clock when the plan was created;
	// pending offers whose plan has aged past pendingTTL ticks are
	// dropped (an abandoned job's offers must not fire builds later).
	observedAt uint64
	// Err is the stream's most recent build error. Per plan, like the
	// counters: a concurrent stream's job start must not wipe another
	// stream's failure; it clears when the stream's own next job is
	// observed.
	Err error
}

// pendingTTL is how many job-clock ticks a pending offer survives
// without its (file, column) stream re-observing. Offers are normally
// consumed by the very job that made them; the TTL only matters for
// offers orphaned by a failed or abandoned job, which must not fire
// builds for a column nothing demands anymore. Generous enough that a
// slow job overlapped by many other streams' ObserveJob ticks keeps its
// offers.
const pendingTTL = 16

// planKey identifies one (file, column) conversion stream.
type planKey struct {
	file string
	col  int
}

// replicaRecord is the lifecycle manager's registry entry for one
// adaptive replica it built and charged against the budget.
type replicaRecord struct {
	file    string
	col     int
	block   hdfs.BlockID
	node    hdfs.NodeID
	charged int64 // bytes charged against BudgetBytes
	added   bool  // stored as an additional replica (evictable)
	// Heat: the logical clock (one tick per ObserveJob) of the last job
	// whose split phase index-scanned this replica, and how often that
	// happened. Builds count as a touch.
	lastTouch uint64
	touches   int
}

// repID keys the replica registry: one adaptive replica per (block,
// column) — rebuilding the same column elsewhere (e.g. after a node loss)
// replaces the entry and retires the orphan.
type repID struct {
	block hdfs.BlockID
	col   int
}

// dropKey identifies one physical replica selected for eviction but not
// yet dropped from the cluster — the in-flight set the readability guard
// must not count as a survivor.
type dropKey struct {
	block hdfs.BlockID
	node  hdfs.NodeID
}

// ReplicaHeat is the exported view of one registry entry, for reports and
// tests.
type ReplicaHeat struct {
	File      string
	Column    int
	Block     hdfs.BlockID
	Node      hdfs.NodeID
	Bytes     int64
	Added     bool
	Touches   int
	LastTouch uint64
}

// Indexer piggybacks lazy index creation on MapReduce job execution and
// manages the lifecycle of the replicas it creates. Wire it into a job by
// setting core.InputFormat.Adaptive = idx and mapred.Engine.PostTask =
// idx.AfterTask. Its policy — offer rate and budget — is fixed by New.
type Indexer struct {
	Cluster *hdfs.Cluster
	// rate is the fraction of a job's unindexed blocks converted during
	// that job, in (0, 1]; at least one block is offered whenever any
	// block misses. A rate ≤ 0 converts nothing (misses are still
	// counted).
	rate float64
	// budget caps the extra storage adaptive conversions may consume,
	// summed across all jobs: a replica added on a free node counts its
	// full stored size, an in-place replacement only its growth (the
	// index). 0 means unbounded. A build that would cross the cap first
	// drops the coldest evictable replicas of other streams; it is denied
	// (JobPlan.BudgetDenied) only when they cannot make room. The last
	// build before the cap may overshoot it by at most one replica.
	budget int64

	mu sync.Mutex
	// misses counts, per (file, column), the (job, block) full scans a
	// missing index caused: the demand signal victim ranking breaks ties
	// on.
	misses map[planKey]int
	clock  uint64 // logical job clock: one tick per ObserveJob
	// pending maps each offered block to the (file, column) plans that
	// offered it; AfterTask consumes entries as the blocks' tasks finish.
	pending  map[hdfs.BlockID]map[planKey]*JobPlan
	plans    map[planKey]*JobPlan
	lastKey  planKey
	hasLast  bool
	replicas map[repID]*replicaRecord
	// dropping marks replicas selected for eviction whose cluster drop
	// has not landed yet (the drop runs outside the lock); the victim
	// selection's readability guard treats them as already gone.
	dropping map[dropKey]bool
	extra    int64 // extra storage consumed so far, against budget

	// om/tr are the observability hooks (BindObs / SetTrace): registry
	// handles for activity counters and the build-latency histogram, and
	// the per-query trace receiving offer/build/evict/deny events. Both
	// nil by default, making every recording site a no-op.
	om obsHandles
	tr *obs.Trace
}

// New returns an Indexer for the cluster that offers offerRate of each
// job's unindexed blocks for conversion (≤ 0: none, demand is only
// observed) and keeps the extra storage within budgetBytes (0: unbounded).
// Its registry starts as the namenode's adaptive records, which a saved
// and loaded cluster keeps: they count against the budget, and the clock
// starts at the hottest, so relative coldness survives a restart.
func New(cluster *hdfs.Cluster, offerRate float64, budgetBytes int64) *Indexer {
	i := &Indexer{
		Cluster:  cluster,
		rate:     offerRate,
		budget:   budgetBytes,
		misses:   make(map[planKey]int),
		pending:  make(map[hdfs.BlockID]map[planKey]*JobPlan),
		plans:    make(map[planKey]*JobPlan),
		replicas: make(map[repID]*replicaRecord),
		dropping: make(map[dropKey]bool),
	}
	for _, r := range cluster.NameNode().AdaptiveReplicas() {
		rec := r.Info.Adaptive
		id := repID{r.Block, r.Info.SortColumn}
		if _, dup := i.replicas[id]; dup {
			continue
		}
		i.replicas[id] = &replicaRecord{
			file: rec.File, col: r.Info.SortColumn, block: r.Block, node: r.Node,
			charged: rec.Charged, added: rec.Added,
			lastTouch: rec.LastTouch, touches: rec.Touches,
		}
		i.extra += rec.Charged
		i.clock = max(i.clock, rec.LastTouch)
	}
	return i
}

// BudgetBytes returns the extra-storage cap New was given.
func (i *Indexer) BudgetBytes() int64 { return i.budget }

// ObserveJob implements core.AdaptiveObserver: it counts the job's missing
// blocks against (file, column), stamps the heat of the adaptive replicas
// serving this job's index scans, and selects the offer-rate-bounded
// subset of missing blocks to convert during this job. Offers pending for
// the *same* (file, column) from a previous job are dropped — demand for
// a column is re-derived from the current workload each job — but offers
// for other columns (concurrent or interleaved jobs) are untouched.
func (i *Indexer) ObserveJob(file string, column int, indexed, missing []hdfs.BlockID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.clock++
	key := planKey{file, column}
	i.misses[key] += len(missing)
	// Heat: an index-scan split over an adaptive replica is a touch. The
	// namenode keeps it with the replica's record, in one call a job,
	// under i.mu so that calls land in clock order.
	var heat []hdfs.Heat
	for _, b := range indexed {
		if r, ok := i.replicas[repID{b, column}]; ok && r.file == file {
			r.lastTouch = i.clock
			r.touches++
			heat = append(heat, hdfs.Heat{Block: r.block, Node: r.node, Touches: r.touches, LastTouch: r.lastTouch})
		}
	}
	if len(heat) > 0 {
		i.Cluster.NameNode().SetHeat(heat)
	}

	offer := 0
	if i.rate > 0 && len(missing) > 0 {
		offer = int(math.Ceil(i.rate * float64(len(missing))))
		if offer > len(missing) {
			offer = len(missing)
		}
	}
	denied := 0
	if offer > 0 && i.budgetSpentLocked(key) {
		// Keep counting demand, build nothing more. With enough evictable
		// bytes the offers stand — the build step reclaims budget replica
		// by replica.
		denied = offer
		offer = 0
	}
	// Drop this key's superseded offers — demand for a column is
	// re-derived each job — and expire offers whose stream went silent:
	// an abandoned job's offers must not fire builds for a column
	// nothing demands anymore.
	for b, m := range i.pending {
		for k, p := range m {
			if k == key || p.observedAt+pendingTTL < i.clock {
				delete(m, k)
			}
		}
		if len(m) == 0 {
			delete(i.pending, b)
		}
	}
	i.om.offers.Add(int64(offer))
	i.om.denied.Add(int64(denied))
	if i.tr.Enabled() {
		i.tr.Instant("adaptive.observe", "adaptive", 0, obs.Span{})
		i.tr.Count("adaptive.offered", int64(offer))
		i.tr.Count("adaptive.budget_denied", int64(denied))
		i.tr.Count("adaptive.missing", int64(len(missing)))
	}
	plan := &JobPlan{
		File: file, Column: column,
		Indexed: len(indexed), Missing: len(missing), Offered: offer,
		BudgetDenied: denied,
		observedAt:   i.clock,
	}
	// Deterministic selection: lowest block IDs first.
	sel := append([]hdfs.BlockID(nil), missing...)
	sort.Slice(sel, func(a, b int) bool { return sel[a] < sel[b] })
	for _, b := range sel[:offer] {
		m := i.pending[b]
		if m == nil {
			m = make(map[planKey]*JobPlan, 1)
			i.pending[b] = m
		}
		m[key] = plan
	}
	i.plans[key] = plan
	i.lastKey, i.hasLast = key, true
}

// AfterTask is the mapred.Engine PostTask hook: for every block of the
// finished task that was offered for conversion — by any (file, column)
// stream — it sorts the block on the target column, builds its clustered
// index, and stores the reorganized replica. It runs on the task's worker
// goroutine, so the build overlaps the job's remaining map tasks.
func (i *Indexer) AfterTask(report mapred.TaskReport) {
	type build struct {
		key  planKey
		plan *JobPlan
	}
	for _, b := range report.Split.Blocks {
		i.mu.Lock()
		var builds []build
		if m := i.pending[b]; len(m) > 0 {
			for k, p := range m {
				builds = append(builds, build{k, p})
			}
			delete(i.pending, b)
		}
		i.mu.Unlock()
		// Deterministic build order under map iteration: by (file, column).
		sort.Slice(builds, func(a, c int) bool {
			if builds[a].key.file != builds[c].key.file {
				return builds[a].key.file < builds[c].key.file
			}
			return builds[a].key.col < builds[c].key.col
		})
		for _, bd := range builds {
			i.buildOne(bd.key, bd.plan, b, report.Node)
		}
	}
}

// LastJob returns the plan and build outcome of the most recently
// observed job. With several (file, column) streams in flight, Plan gives
// per-stream access.
func (i *Indexer) LastJob() JobPlan {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.hasLast {
		return JobPlan{}
	}
	return clonePlan(i.plans[i.lastKey])
}

// Plan returns the most recent plan for one (file, column) stream.
func (i *Indexer) Plan(file string, col int) (JobPlan, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	p, ok := i.plans[planKey{file, col}]
	if !ok {
		return JobPlan{}, false
	}
	return clonePlan(p), true
}

func clonePlan(p *JobPlan) JobPlan {
	if p == nil {
		return JobPlan{}
	}
	out := *p
	out.EvictedReplicas = append([]EvictedReplica(nil), p.EvictedReplicas...)
	return out
}

// ExtraBytes returns the extra storage adaptive conversions have consumed
// so far — the quantity BudgetBytes caps, net of evictions.
func (i *Indexer) ExtraBytes() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.extra
}

// Replicas returns the lifecycle registry — every adaptive replica
// currently charged against the budget, with its heat — sorted by (file,
// column, block) for deterministic reports.
func (i *Indexer) Replicas() []ReplicaHeat {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]ReplicaHeat, 0, len(i.replicas))
	for _, r := range i.replicas {
		out = append(out, ReplicaHeat{
			File: r.file, Column: r.col, Block: r.block, Node: r.node,
			Bytes: r.charged, Added: r.added,
			Touches: r.touches, LastTouch: r.lastTouch,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].File != out[b].File {
			return out[a].File < out[b].File
		}
		if out[a].Column != out[b].Column {
			return out[a].Column < out[b].Column
		}
		return out[a].Block < out[b].Block
	})
	return out
}

// selectVictimsLocked picks the adaptive replicas to retire so that
// `need` more budget bytes fit, never cannibalizing the requesting
// (file, column) stream. Victims must be strictly colder than the
// current job (lastTouch < clock) and evictable:
//
//   - only *added* replicas qualify — an in-place conversion reorganized
//     one of the file's original replicas, so dropping it would shrink
//     the file below its upload replication (its budget charge is only
//     the index growth anyway);
//   - a victim on an alive node must leave the block with another alive
//     replica (dropping the only readable copy would trade budget for an
//     unreadable block); replicas already selected for dropping — in this
//     batch or by a concurrent build whose drop has not landed yet
//     (i.dropping) — do not count as survivors, so two victims of one
//     block can never be selected against each other; dead-node orphans
//     are always evictable and are retired first — they serve nobody.
//
// Among equally dead-or-alive candidates the order is least recently
// touched first, then fewer misses counted for the victim's (file,
// column), then block/column for determinism. If the evictable total
// cannot cover `need`, nothing is evicted — retiring replicas without
// unblocking the build would be pure churn. The selected records are
// removed from the registry and their charge released; the caller drops
// the physical replicas after releasing the lock.
func (i *Indexer) selectVictimsLocked(requester planKey, need int64) []*replicaRecord {
	type cand struct {
		r      *replicaRecord
		dead   bool
		misses int
	}
	aliveSurvivors := func(r *replicaRecord) int {
		n := 0
		for _, h := range i.Cluster.NameNode().GetHosts(r.block) {
			if h == r.node || i.dropping[dropKey{r.block, h}] {
				continue
			}
			if dn, err := i.Cluster.DataNode(h); err == nil && dn.Alive() {
				n++
			}
		}
		return n
	}
	var cands []cand
	for _, r := range i.replicas {
		if (planKey{r.file, r.col}) == requester || !r.added {
			continue
		}
		if r.lastTouch >= i.clock {
			continue // touched by the current job's own split phase
		}
		dead := true
		if dn, err := i.Cluster.DataNode(r.node); err == nil && dn.Alive() {
			dead = false
		}
		cands = append(cands, cand{r, dead, i.misses[planKey{r.file, r.col}]})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dead != cands[b].dead {
			return cands[a].dead // orphans on dead nodes go first
		}
		if cands[a].r.lastTouch != cands[b].r.lastTouch {
			return cands[a].r.lastTouch < cands[b].r.lastTouch
		}
		if cands[a].misses != cands[b].misses {
			return cands[a].misses < cands[b].misses
		}
		if cands[a].r.block != cands[b].r.block {
			return cands[a].r.block < cands[b].r.block
		}
		return cands[a].r.col < cands[b].r.col
	})
	// Greedy pick in priority order, applying the readability guard
	// against the victims picked so far: an alive victim must leave the
	// block another alive replica that is not itself being dropped.
	var victims []*replicaRecord
	var avail int64
	for _, c := range cands {
		if avail >= need {
			break
		}
		if !c.dead && aliveSurvivors(c.r) == 0 {
			continue // would be the block's last readable replica
		}
		i.dropping[dropKey{c.r.block, c.r.node}] = true
		victims = append(victims, c.r)
		avail += c.r.charged
	}
	if avail < need {
		// Not enough evictable bytes: retiring replicas without
		// unblocking the build would be pure churn. Undo the tentative
		// selection.
		for _, v := range victims {
			delete(i.dropping, dropKey{v.block, v.node})
		}
		return nil
	}
	for _, v := range victims {
		delete(i.replicas, repID{v.block, v.col})
		i.extra -= v.charged
	}
	return victims
}

// budgetSpentLocked reports whether requester's builds are hopeless: the
// budget is exhausted and even retiring every replica eviction could
// possibly reclaim for it would leave it full (extra − evictable ≥
// budget), e.g. because every conversion was in-place or the charges are
// too small. It is the cheap screen the offer and build paths run before
// any work, and deliberately ignores heat and liveness — a false negative
// costs at most one job's wasted builds, a false positive would freeze the
// stream; the strict filters run at reservation time.
func (i *Indexer) budgetSpentLocked(requester planKey) bool {
	if i.budget <= 0 || i.extra < i.budget {
		return false
	}
	evictable := int64(0)
	for _, r := range i.replicas {
		if r.added && (planKey{r.file, r.col}) != requester {
			evictable += r.charged
		}
	}
	return i.extra-evictable >= i.budget
}

// dropVictims retires the selected replicas from the cluster. Runs
// without i.mu held: DropReplica takes the namenode lock and fires the
// replica-change hook (the result cache's purge path). Only successful
// drops are reported as evictions; a failed drop restores the victim's
// registry entry and budget charge so the accounting keeps matching the
// directory.
func (i *Indexer) dropVictims(plan *JobPlan, victims []*replicaRecord) {
	for _, v := range victims {
		err := i.Cluster.DropReplica(v.block, v.node)
		i.mu.Lock()
		delete(i.dropping, dropKey{v.block, v.node})
		if err != nil {
			plan.Err = fmt.Errorf("adaptive: evict block %d column %d from node %d: %v", v.block, v.col, v.node, err)
			if _, taken := i.replicas[repID{v.block, v.col}]; !taken {
				i.replicas[repID{v.block, v.col}] = v
				i.extra += v.charged
			}
			i.mu.Unlock()
			continue
		}
		plan.Evicted++
		plan.EvictedBytes += v.charged
		plan.EvictedReplicas = append(plan.EvictedReplicas, EvictedReplica{
			File: v.file, Column: v.col, Block: v.block, Node: v.node, Bytes: v.charged,
		})
		i.om.evicted.Inc()
		i.om.evictedBytes.Add(v.charged)
		if i.tr.Enabled() {
			i.tr.Instant("adaptive.evict", "adaptive", 0, obs.Span{})
			i.tr.Count("adaptive.evicted", 1)
		}
		i.mu.Unlock()
	}
}

// buildOne converts one block for one (file, column) stream: rebuild any
// replica re-sorted on col, build the sparse clustered index, and store
// the result — in place of an unsorted replica when one exists (no extra
// storage beyond the index), as an additional replica on a free node
// otherwise.
func (i *Indexer) buildOne(key planKey, plan *JobPlan, b hdfs.BlockID, near hdfs.NodeID) {
	file, col := key.file, key.col
	i.mu.Lock()
	om, tr := i.om, i.tr
	i.mu.Unlock()
	sp := tr.StartSpan("adaptive.build", "adaptive", 0, obs.Span{})
	sp.SetInt("block", int64(b))
	sp.SetInt("col", int64(col))
	defer sp.End()
	var buildStart time.Time
	if om.buildSeconds != nil {
		buildStart = time.Now()
	}
	fail := func(err error) {
		om.failed.Inc()
		i.mu.Lock()
		plan.Failed++
		plan.Err = fmt.Errorf("adaptive: block %d column %d: %v", b, col, err)
		i.mu.Unlock()
	}

	// Builds earlier in this very job may have exhausted the budget since
	// the offer was made; re-check before paying for anything. The exact
	// decision needs the replica's size (it happens at reservation time
	// below), but when even retiring every evictable replica could not
	// bring the budget under the cap the build is already hopeless — skip
	// it before the read+sort+index work.
	i.mu.Lock()
	over := i.budgetSpentLocked(key)
	if over {
		plan.BudgetDenied++
	}
	i.mu.Unlock()
	if over {
		om.denied.Inc()
		tr.Count("adaptive.budget_denied", 1)
		return
	}

	// Choose the placement before paying for the read and sort: on a
	// fully replicated cluster there may be nowhere to put a new copy,
	// and that is a capacity condition to skip cheaply, not an error to
	// re-pay the build cost for on every job.
	target, replace := i.findUnsortedReplica(b)
	if !replace {
		var ok bool
		if target, ok = i.pickFreeNode(b, nil); !ok {
			om.skipped.Inc()
			i.mu.Lock()
			plan.Skipped++
			i.mu.Unlock()
			return
		}
	}

	framed, info, err := i.rebuild(b, near, col)
	var sorted []byte // the PAX section, for the cost model
	if err == nil {
		sorted, _, err = core.ParseFrame(framed)
	}
	if err != nil {
		fail(err)
		return
	}

	// Extra-storage accounting: a replacement rewrites bytes that were
	// already stored, so only its growth (the attached index) counts
	// against the budget; an added replica counts in full.
	extraDelta := int64(len(framed))
	if replace {
		if dn, dnErr := i.Cluster.DataNode(target); dnErr == nil {
			if old := dn.ReplicaSize(b); old >= 0 {
				extraDelta -= int64(old)
			}
		}
		if extraDelta < 0 {
			extraDelta = 0
		}
	}

	// Reserve the delta atomically with the budget check: parallel
	// PostTask workers all build concurrently, and a check-then-store
	// window would let every in-flight build pass while extra is still
	// under the cap. Reserving caps the overshoot at one replica per
	// budget crossing; the reservation is released if the store fails.
	// A build that would cross the cap first retires the coldest adaptive
	// replicas (selected under the same lock, dropped from the cluster
	// after it is released).
	var victims []*replicaRecord
	i.mu.Lock()
	if i.budget > 0 && i.extra+extraDelta > i.budget {
		victims = i.selectVictimsLocked(key, i.extra+extraDelta-i.budget)
	}
	if i.budget > 0 && i.extra >= i.budget {
		plan.BudgetDenied++
		i.mu.Unlock()
		om.denied.Inc()
		tr.Count("adaptive.budget_denied", 1)
		i.dropVictims(plan, victims)
		return
	}
	i.extra += extraDelta
	// The replica's record goes into Dir_rep with it: a build is a touch.
	rec := &hdfs.AdaptiveRecord{File: file, Charged: extraDelta, Added: !replace, Touches: 1, LastTouch: i.clock}
	i.mu.Unlock()
	i.dropVictims(plan, victims)
	info.Adaptive = rec

	collided := make(map[hdfs.NodeID]bool)
	for {
		if replace {
			err = i.Cluster.ReplaceReplica(b, target, framed, info)
		} else {
			err = i.Cluster.StoreAdditionalReplica(b, target, framed, info)
		}
		if err == nil {
			break
		}
		if !replace && errors.Is(err, hdfs.ErrReplicaExists) {
			// Benign capacity race: a concurrent build or recovery put a
			// replica on the node after pickFreeNode chose it (or ghost
			// bytes survive on a revived node the directory no longer
			// lists). Re-pick around the collision; with every node
			// occupied this is a skip, not a failure.
			collided[target] = true
			var ok bool
			if target, ok = i.pickFreeNode(b, collided); ok {
				continue
			}
			om.skipped.Inc()
			i.mu.Lock()
			i.extra -= extraDelta
			plan.Skipped++
			i.mu.Unlock()
			return
		}
		i.mu.Lock()
		i.extra -= extraDelta
		i.mu.Unlock()
		fail(err)
		return
	}

	om.built.Inc()
	if replace {
		om.replaced.Inc()
	} else {
		om.added.Inc()
	}
	if om.buildSeconds != nil {
		om.buildSeconds.Observe(time.Since(buildStart))
	}
	tr.Count("adaptive.built", 1)
	i.mu.Lock()
	plan.Built++
	if replace {
		plan.ReplicasReplaced++
	} else {
		plan.ReplicasAdded++
	}
	// Sorting rewrites the whole PAX payload; the sorted marshal is the
	// same size as the input block.
	plan.SortedBytes += int64(len(sorted))
	plan.IndexBytes += int64(info.IndexSize)
	plan.StoredBytes += int64(len(framed))
	// Lifecycle registry: the new replica starts hot (a build is a
	// touch). A previous adaptive replica for the same (block, column) —
	// orphaned on a dead node, which is why the block showed up missing
	// again — is retired: its budget charge is released and the stale
	// directory entry dropped, so the registry tracks exactly the
	// replicas the budget pays for.
	id := repID{b, col}
	orphan := i.replicas[id]
	if orphan != nil {
		i.extra -= orphan.charged
	}
	i.replicas[id] = &replicaRecord{
		file: file, col: col, block: b, node: target,
		charged: extraDelta, added: !replace,
		lastTouch: rec.LastTouch, touches: 1,
	}
	i.mu.Unlock()
	if orphan != nil && orphan.node != target {
		if err := i.Cluster.DropReplica(orphan.block, orphan.node); err != nil {
			i.mu.Lock()
			plan.Err = fmt.Errorf("adaptive: retire orphaned replica of block %d on node %d: %v", orphan.block, orphan.node, err)
			i.mu.Unlock()
		}
	}
}

// rebuild builds block b's replica sorted and indexed on col from the
// first holder, in ReplicaOrder from near, that is alive and reads back
// verified: ReadBlockAny's failover, over views instead of copies. The map
// task just scanned this block, so in a real deployment these bytes are
// hot in the task's page cache; re-reading from the serving node models
// that (the cost model charges no extra read).
func (i *Indexer) rebuild(b hdfs.BlockID, near hdfs.NodeID, col int) ([]byte, hdfs.ReplicaInfo, error) {
	hosts := i.Cluster.ReplicaOrder(b, near)
	if len(hosts) == 0 {
		return nil, hdfs.ReplicaInfo{}, fmt.Errorf("hdfs: block %d has no replicas", b)
	}
	var lastErr error
	for _, h := range hosts {
		v, err := i.Cluster.OpenBlockFrom(h, b)
		if err != nil {
			lastErr = err
			continue
		}
		framed, info, err := core.RebuildReplica(v, col)
		if !errors.Is(err, hdfs.ErrCorruptChunk) {
			return framed, info, err
		}
		lastErr = err
	}
	return nil, hdfs.ReplicaInfo{}, fmt.Errorf("hdfs: all replicas of block %d unreadable: %v", b, lastErr)
}

// findUnsortedReplica returns an alive node holding an unsorted, unindexed
// replica of b — the cheapest conversion target, since replacing it costs
// no extra storage beyond the index.
func (i *Indexer) findUnsortedReplica(b hdfs.BlockID) (hdfs.NodeID, bool) {
	nn := i.Cluster.NameNode()
	for _, h := range nn.GetHosts(b) {
		info, ok := nn.ReplicaInfo(b, h)
		if !ok || info.HasIndex || info.SortColumn != -1 {
			continue
		}
		if dn, err := i.Cluster.DataNode(h); err == nil && dn.Alive() {
			return h, true
		}
	}
	return 0, false
}

// pickFreeNode returns an alive node not yet holding a replica of b,
// spreading adaptive replicas across the cluster by block ID. exclude
// lists nodes a placement race already collided on.
func (i *Indexer) pickFreeNode(b hdfs.BlockID, exclude map[hdfs.NodeID]bool) (hdfs.NodeID, bool) {
	holders := make(map[hdfs.NodeID]bool)
	for _, h := range i.Cluster.NameNode().GetHosts(b) {
		holders[h] = true
	}
	var cands []hdfs.NodeID
	for _, n := range i.Cluster.AliveNodes() {
		if !holders[n] && !exclude[n] {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
	return cands[int(b)%len(cands)], true
}
