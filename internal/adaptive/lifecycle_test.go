package adaptive

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// sortedRows flattens a job result to sorted row strings for equivalence
// checks.
func sortedRows(res *mapred.JobResult) []string {
	rows := make([]string, 0, len(res.Output))
	for _, kv := range res.Output {
		rows = append(rows, kv.Key)
	}
	sort.Strings(rows)
	return rows
}

// referenceRows runs the query without any adaptive machinery.
func referenceRows(t *testing.T, cluster *hdfs.Cluster, file string, q *query.Query) []string {
	t.Helper()
	engine := &mapred.Engine{Cluster: cluster}
	res, err := engine.Run(&mapred.Job{
		Name:     "reference",
		File:     file,
		Input:    &core.InputFormat{Cluster: cluster, Query: q},
		MapBatch: workload.PassthroughMapBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sortedRows(res)
}

func assertSameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// restart is what hailquery does on every invocation: a new Indexer with
// the given budget, whose registry — rebuilt from the namenode's adaptive
// records — is the one the previous Indexer leaves behind, heat included.
func restart(t *testing.T, cluster *hdfs.Cluster, old *Indexer, budget int64) *Indexer {
	t.Helper()
	idx := New(cluster, 1.0, budget)
	if got, want := idx.Replicas(), old.Replicas(); !slices.Equal(got, want) {
		t.Fatalf("registry after the restart:\n%+v\nwant\n%+v", got, want)
	}
	return idx
}

// TestEvictionReclaimsBudgetOnWorkloadShift is the lifecycle's acceptance
// test at unit scale: converge on column c, restart with the budget at
// exactly the space those replicas occupy, then shift the workload to
// column d. Each d-build retires the coldest c-replicas, every drop is
// unregistered from the directory with a generation bump, and the
// workload converges on d — with results byte-equivalent to non-adaptive
// execution throughout.
func TestEvictionReclaimsBudgetOnWorkloadShift(t *testing.T) {
	cluster, file := upload(t, 8, 2000, []int{0, 1}) // all replicas sorted: builds add replicas
	nn := cluster.NameNode()
	blocks, _ := nn.FileBlocks(file)
	refC := referenceRows(t, cluster, file, cQuery())
	refD := referenceRows(t, cluster, file, dQuery())

	idx := New(cluster, 1.0, 0)

	// Phase 1: converge on c (unbounded budget).
	assertSameRows(t, "phase-c job", sortedRows(runJob(t, cluster, file, idx)), refC)
	if plan := idx.LastJob(); plan.Built != len(blocks) {
		t.Fatalf("phase c built %d blocks, want %d", plan.Built, len(blocks))
	}
	used := idx.ExtraBytes()
	if used == 0 {
		t.Fatal("no extra storage consumed by phase c")
	}

	// Freeze the budget at the current consumption: nothing new fits
	// without retiring something first.
	idx = restart(t, cluster, idx, used+16)

	gensBefore := make(map[hdfs.BlockID]uint64)
	for _, b := range blocks {
		gensBefore[b] = nn.Generation(b)
	}

	// Phase 2: the workload shifts to d. Builds must evict c-replicas.
	assertSameRows(t, "phase-d job 1", sortedRows(runQueryJob(t, cluster, file, idx, dQuery())), refD)
	plan := idx.LastJob()
	if plan.Column != 3 {
		t.Fatalf("phase d plan column = %d, want 3", plan.Column)
	}
	if plan.Built == 0 || plan.Evicted == 0 {
		t.Fatalf("phase d plan = %+v, want builds funded by evictions", plan)
	}
	if plan.BudgetDenied != 0 || plan.Failed != 0 {
		t.Fatalf("phase d plan = %+v, want no denials or failures", plan)
	}
	// Every eviction unregistered the replica and bumped the generation.
	// The freed node may legitimately host a new column-3 replica of the
	// same block later in the job, so the check is column-precise.
	for _, ev := range plan.EvictedReplicas {
		if ev.Column != 2 {
			t.Errorf("evicted a column-%d replica, want only cold column-2 victims", ev.Column)
		}
		if info, ok := nn.ReplicaInfo(ev.Block, ev.Node); ok && info.HasIndex && info.SortColumn == ev.Column {
			t.Errorf("evicted replica (%d,%d,col %d) still registered", ev.Block, ev.Node, ev.Column)
		}
		if g := nn.Generation(ev.Block); g <= gensBefore[ev.Block] {
			t.Errorf("block %d generation %d not bumped by eviction (was %d)", ev.Block, g, gensBefore[ev.Block])
		}
	}
	// The budget holds: eviction reclaims, it does not overshoot.
	if extra := idx.ExtraBytes(); extra > idx.BudgetBytes() {
		t.Errorf("extra storage %d exceeds budget %d despite eviction", extra, idx.BudgetBytes())
	}

	// Phase 2 continues to full convergence on d.
	assertSameRows(t, "phase-d job 2", sortedRows(runQueryJob(t, cluster, file, idx, dQuery())), refD)
	plan = idx.LastJob()
	if plan.Missing != 0 || plan.Indexed != len(blocks) {
		t.Fatalf("phase d did not converge: %+v", plan)
	}
	// The registry now tracks d-replicas (c's were retired as needed).
	for _, r := range idx.Replicas() {
		if r.Column != 2 && r.Column != 3 {
			t.Errorf("unexpected registry column %d", r.Column)
		}
	}
}

// TestBudgetDeniedForeverWithoutEviction: a budget spent on in-place
// conversions has nothing to evict — those reorganized one of the file's
// original replicas — so a shifted workload is denied every build,
// forever, and still answers correctly by full scan.
func TestBudgetDeniedForeverWithoutEviction(t *testing.T) {
	cluster, file := upload(t, 8, 2000, []int{0, -1}) // c converts replica 1 in place
	refD := referenceRows(t, cluster, file, dQuery())
	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx) // converge on c
	if plan := idx.LastJob(); plan.ReplicasReplaced == 0 || plan.ReplicasAdded != 0 || idx.ExtraBytes() == 0 {
		t.Fatalf("phase c plan = %+v, extra %d: want in-place conversions that grew the storage", plan, idx.ExtraBytes())
	}
	// Freeze the budget at (not above) the consumed bytes: the
	// overshoot-by-one allowance applies only while extra is still under
	// the cap.
	idx = restart(t, cluster, idx, idx.ExtraBytes())

	for j := 0; j < 2; j++ {
		assertSameRows(t, "denied job", sortedRows(runQueryJob(t, cluster, file, idx, dQuery())), refD)
		plan := idx.LastJob()
		if plan.Built != 0 || plan.Evicted != 0 {
			t.Fatalf("job %d plan = %+v, want nothing built or evicted", j+1, plan)
		}
		if plan.BudgetDenied == 0 {
			t.Fatalf("job %d plan = %+v, want offers denied at the exhausted budget", j+1, plan)
		}
	}
}

// TestEvictionPrefersDeadNodeOrphans: an adaptive replica stranded on a
// dead node serves nobody — the eviction policy must retire it before any
// replica the workload can still read.
func TestEvictionPrefersDeadNodeOrphans(t *testing.T) {
	cluster, file := upload(t, 8, 2000, []int{0, 1})
	nn := cluster.NameNode()
	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx) // converge on c

	// Strand one c-replica on a dead node.
	var orphanNode hdfs.NodeID = -1
	var orphanBlock hdfs.BlockID
	for _, r := range idx.Replicas() {
		orphanNode, orphanBlock = r.Node, r.Block
		break
	}
	if orphanNode == -1 {
		t.Fatal("no adaptive replicas registered")
	}
	if err := cluster.KillNode(orphanNode); err != nil {
		t.Fatal(err)
	}

	// One worker, tasks in order: builds select their victims one after
	// another, so the first selection's first victim is the plan's first
	// eviction. (With parallel builds, whichever drop lands first is.)
	idx = restart(t, cluster, idx, idx.ExtraBytes()+16)
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask, Parallelism: 1}
	if _, err := engine.Run(&mapred.Job{
		Name:     "orphan-first",
		File:     file,
		Input:    &core.InputFormat{Cluster: cluster, Query: dQuery(), Adaptive: idx},
		MapBatch: func(*mapred.Batch, mapred.Emitter) {},
	}); err != nil {
		t.Fatal(err)
	}
	if err := idx.LastJob().Err; err != nil {
		t.Fatal(err)
	}
	plan := idx.LastJob()
	if plan.Built == 0 || plan.Evicted == 0 {
		t.Fatalf("plan = %+v, want evictions funding builds", plan)
	}
	first := plan.EvictedReplicas[0]
	if first.Node != orphanNode {
		t.Errorf("first eviction was (%d,%d), want the dead-node orphan (%d,%d)",
			first.Block, first.Node, orphanBlock, orphanNode)
	}
	if _, ok := nn.ReplicaInfo(first.Block, first.Node); ok {
		t.Error("dead-node orphan still registered after eviction")
	}
}

// TestConcurrentJobsKeepPerColumnPlans is the satellite-1 -race
// regression: two engines sharing one Indexer run overlapping jobs on
// different columns. Before the per-(file,column) keying, the second
// ObserveJob wiped the first job's in-flight offers and its JobPlan
// counters; now each stream's accounting must balance on its own.
func TestConcurrentJobsKeepPerColumnPlans(t *testing.T) {
	cluster, file := upload(t, 8, 2000, []int{0, 1})
	refC := referenceRows(t, cluster, file, cQuery())
	refD := referenceRows(t, cluster, file, dQuery())
	idx := New(cluster, 1.0, 0)

	var wg sync.WaitGroup
	results := make([]*mapred.JobResult, 2)
	errs := make([]error, 2)
	queries := []*query.Query{cQuery(), dQuery()}
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask, Parallelism: 4}
			results[n], errs[n] = engine.Run(&mapred.Job{
				Name:     "overlap",
				File:     file,
				Input:    &core.InputFormat{Cluster: cluster, Query: queries[n], Adaptive: idx},
				MapBatch: workload.PassthroughMapBatch,
			})
		}(n)
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", n, err)
		}
	}
	if err := idx.LastJob().Err; err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "overlapping c job", sortedRows(results[0]), refC)
	assertSameRows(t, "overlapping d job", sortedRows(results[1]), refD)

	for _, col := range []int{2, 3} {
		plan, ok := idx.Plan(file, col)
		if !ok {
			t.Fatalf("no plan recorded for column %d", col)
		}
		if got := plan.Built + plan.Skipped + plan.Failed + plan.BudgetDenied; got != plan.Offered {
			t.Errorf("column %d: Built+Skipped+Failed+BudgetDenied = %d, want Offered = %d (plan %+v)",
				col, got, plan.Offered, plan)
		}
		if plan.Failed != 0 {
			t.Errorf("column %d: %d failed builds in a benign overlap (%+v)", col, plan.Failed, plan)
		}
		if plan.Built == 0 {
			t.Errorf("column %d: nothing built — the overlapping job dropped its offers", col)
		}
	}
}

// TestCollisionRepicksFreeNode is the satellite-2 regression: ghost bytes
// on a revived node (the directory no longer lists them) collide with a
// build's StoreAdditionalReplica. The collision is a benign placement
// race: the build must re-pick another free node — or skip cleanly when
// none is left — never count Failed or surface an error.
func TestCollisionRepicksFreeNode(t *testing.T) {
	// One block on 2 of 4 nodes: two free nodes for the adaptive replica.
	cluster, file := upload(t, 4, 400, []int{0, 1})
	nn := cluster.NameNode()
	blocks, _ := nn.FileBlocks(file)
	if len(blocks) != 4 {
		// upload sizes blocks so the file spans ~4 blocks; the test only
		// needs "some" blocks, but pin the ghost on block 0's pick.
		t.Logf("file spans %d blocks", len(blocks))
	}
	b := blocks[0]

	// Plant ghost bytes on the free node pickFreeNode would choose for b:
	// register a replica there, drop it while the node is dead (bytes
	// linger), revive.
	idxProbe := New(cluster, 1.0, 0)
	ghost, ok := idxProbe.pickFreeNode(b, nil)
	if !ok {
		t.Fatal("no free node for the ghost")
	}
	data, _, err := cluster.ReadBlockAny(b, ghost)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.StoreAdditionalReplica(b, ghost, data, hdfs.ReplicaInfo{SortColumn: -1}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillNode(ghost); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DropReplica(b, ghost); err != nil {
		t.Fatal(err)
	}
	if err := cluster.ReviveNode(ghost); err != nil {
		t.Fatal(err)
	}

	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx)
	plan := idx.LastJob()
	if plan.Failed != 0 {
		t.Fatalf("plan = %+v: ghost-byte collision counted as Failed", plan)
	}
	if err := idx.LastJob().Err; err != nil {
		t.Fatalf("collision surfaced as an error: %v", err)
	}
	if plan.Built != len(blocks) {
		t.Fatalf("plan = %+v, want all %d blocks built (collision re-picked)", plan, len(blocks))
	}
	// The colliding block's adaptive replica landed on a node that is not
	// the ghost.
	for _, h := range nn.GetHostsWithIndex(b, 2) {
		if h == ghost {
			t.Errorf("adaptive replica registered on the ghost node %d", ghost)
		}
	}
}

// TestCollisionSkipsWhenNoNodeLeft: with ghosts on every free node, the
// collision degrades to Skipped — the capacity outcome — not Failed.
func TestCollisionSkipsWhenNoNodeLeft(t *testing.T) {
	cluster, file := upload(t, 3, 400, []int{0, 1}) // replication 2 of 3: one free node per block
	nn := cluster.NameNode()
	blocks, _ := nn.FileBlocks(file)

	// Ghost every block's single free node.
	probe := New(cluster, 1.0, 0)
	type ghostRep struct {
		b hdfs.BlockID
		n hdfs.NodeID
	}
	var ghosts []ghostRep
	for _, b := range blocks {
		n, ok := probe.pickFreeNode(b, nil)
		if !ok {
			t.Fatalf("block %d has no free node", b)
		}
		data, _, err := cluster.ReadBlockAny(b, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.StoreAdditionalReplica(b, n, data, hdfs.ReplicaInfo{SortColumn: -1}); err != nil {
			t.Fatal(err)
		}
		ghosts = append(ghosts, ghostRep{b, n})
	}
	for n := 0; n < cluster.NumNodes(); n++ {
		if err := cluster.KillNode(hdfs.NodeID(n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range ghosts {
		if err := cluster.DropReplica(g.b, g.n); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < cluster.NumNodes(); n++ {
		if err := cluster.ReviveNode(hdfs.NodeID(n)); err != nil {
			t.Fatal(err)
		}
	}

	idx := New(cluster, 1.0, 0)
	res := runQueryJob(t, cluster, file, idx, cQuery())
	plan := idx.LastJob()
	if plan.Failed != 0 {
		t.Fatalf("plan = %+v: full-cluster collision counted as Failed", plan)
	}
	if plan.Skipped != len(blocks) || plan.Built != 0 {
		t.Fatalf("plan = %+v, want all %d offered blocks skipped", plan, len(blocks))
	}
	if len(res.Output) == 0 {
		t.Error("query returned no rows")
	}
}

// TestHeatTracksIndexScanTouches: the heat registry must record a touch
// for every job whose split phase index-scans an adaptive replica — the
// signal eviction ranks by.
func TestHeatTracksIndexScanTouches(t *testing.T) {
	cluster, file := upload(t, 8, 2000, []int{0, 1})
	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx) // builds everything: touch 1
	runJob(t, cluster, file, idx) // all index scans: touch 2
	runJob(t, cluster, file, idx) // touch 3
	reps := idx.Replicas()
	if len(reps) == 0 {
		t.Fatal("no replicas in the registry")
	}
	for _, r := range reps {
		if r.Touches != 3 {
			t.Errorf("replica (%d,col %d): %d touches, want 3 (build + two index-scan jobs)", r.Block, r.Column, r.Touches)
		}
		if r.LastTouch == 0 {
			t.Errorf("replica (%d,col %d): zero LastTouch clock", r.Block, r.Column)
		}
		if !r.Added {
			t.Errorf("replica (%d,col %d): expected an added replica on this all-sorted layout", r.Block, r.Column)
		}
	}
	// A d-job does not touch c's replicas.
	runQueryJob(t, cluster, file, idx, dQuery())
	for _, r := range idx.Replicas() {
		if r.Column == 2 && r.Touches != 3 {
			t.Errorf("c-replica (%d): touches rose to %d on a d-job", r.Block, r.Touches)
		}
	}
}

// TestEvictionNeverDropsLastReadableReplica: when a block's original
// replicas are all dead and its only alive copies are two adaptive
// replicas (different columns), a build whose budget shortfall could
// only be covered by evicting BOTH must be denied instead — the victim
// guard counts replicas already selected for dropping as gone, so two
// victims of one block can never be selected against each other.
func TestEvictionNeverDropsLastReadableReplica(t *testing.T) {
	// One block on 2 of 6 nodes (both replicas sorted on a).
	cluster, err := hdfs.NewCluster(6)
	if err != nil {
		t.Fatal(err)
	}
	lines := testLines(400)
	client := &core.Client{
		Cluster: cluster,
		Config: core.LayoutConfig{
			Schema:      testSchema,
			SortColumns: []int{0, 0},
			BlockSize:   1 << 20, // everything in one block
		},
	}
	if _, err := client.Upload("/t", lines); err != nil {
		t.Fatal(err)
	}
	file := "/t"
	nn := cluster.NameNode()
	blocks, _ := nn.FileBlocks(file)
	if len(blocks) != 1 {
		t.Fatalf("fixture spans %d blocks, want 1", len(blocks))
	}
	b := blocks[0]
	originals := append([]hdfs.NodeID(nil), nn.GetHosts(b)...)

	idx := New(cluster, 1.0, 0)
	runQueryJob(t, cluster, file, idx, cQuery()) // adaptive replica on col 2
	runQueryJob(t, cluster, file, idx, dQuery()) // adaptive replica on col 3
	if got := len(idx.Replicas()); got != 2 {
		t.Fatalf("registry has %d replicas, want 2", got)
	}

	// Kill the original holders: the two adaptive replicas are now the
	// block's only readable copies.
	for _, n := range originals {
		if err := cluster.KillNode(n); err != nil {
			t.Fatal(err)
		}
	}

	// A column-1 build now needs ~two replicas' worth of budget: only
	// both adaptive replicas together could fund it — which must never
	// be allowed.
	idx = restart(t, cluster, idx, idx.ExtraBytes()/2)
	bQ := &query.Query{
		Filter:     []query.Predicate{query.Between(1, schema.StringVal("word-0"), schema.StringVal("word-3"))},
		Projection: []int{0, 1},
	}
	res := runQueryJob(t, cluster, file, idx, bQ)
	if len(res.Output) == 0 {
		t.Fatal("column-1 query returned no rows")
	}
	plan := idx.LastJob()
	if plan.Built != 0 || plan.Evicted != 0 {
		t.Fatalf("plan = %+v: the build was funded by dropping the block's last readable replicas", plan)
	}
	if plan.BudgetDenied == 0 {
		t.Fatalf("plan = %+v, want the un-fundable build denied", plan)
	}
	alive := 0
	for _, h := range nn.GetHosts(b) {
		if dn, err := cluster.DataNode(h); err == nil && dn.Alive() {
			alive++
		}
	}
	if alive == 0 {
		t.Fatal("block lost every readable replica to eviction")
	}
	// The block is still answerable.
	if _, _, err := cluster.ReadBlockAny(b, 0); err != nil {
		t.Fatalf("block unreadable after the denied build: %v", err)
	}
}

// TestStalePendingOffersExpire: offers from a job that died before its
// tasks completed must not fire builds for the abandoned column after
// the workload has long moved on — pending entries age out after
// pendingTTL job ticks.
func TestStalePendingOffersExpire(t *testing.T) {
	cluster, file := upload(t, 8, 2000, []int{0, 1})
	idx := New(cluster, 1.0, 0)
	blocks, _ := cluster.NameNode().FileBlocks(file)

	// A col-2 job offers every block, then dies: no task ever reaches
	// AfterTask.
	idx.ObserveJob(file, 2, nil, blocks)

	// The workload shifts to col 3 for more than pendingTTL jobs.
	for j := 0; j < pendingTTL+1; j++ {
		idx.ObserveJob(file, 3, nil, blocks)
	}

	// A task finally covers the blocks: only col-3 builds may fire.
	idx.AfterTask(mapred.TaskReport{Split: mapred.Split{Blocks: blocks}, Node: 0})
	if p, _ := idx.Plan(file, 3); p.Err != nil {
		t.Fatal(p.Err)
	}
	if p, ok := idx.Plan(file, 2); !ok || p.Built != 0 {
		t.Errorf("abandoned col-2 stream built %d blocks after %d silent ticks, want 0", p.Built, pendingTTL+1)
	}
	if p, ok := idx.Plan(file, 3); !ok || p.Built != len(blocks) {
		t.Errorf("current col-3 stream built %d blocks, want %d", p.Built, len(blocks))
	}
	for _, r := range idx.Replicas() {
		if r.Column == 2 {
			t.Errorf("registry holds a col-2 replica (block %d) built from an expired offer", r.Block)
		}
	}
}
