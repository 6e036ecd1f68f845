package adaptive

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
)

// testSchema: a (int32), b (string), c (int32), d (int32). The static
// layout never indexes c or d, so queries filtering on them exercise the
// adaptive path — two of them, so a shifting workload (c hot → d hot)
// exercises the lifecycle manager.
var testSchema = schema.MustNew(
	schema.Field{Name: "a", Type: schema.Int32},
	schema.Field{Name: "b", Type: schema.String},
	schema.Field{Name: "c", Type: schema.Int32},
	schema.Field{Name: "d", Type: schema.Int32},
)

func testLines(n int) []string {
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("%d,word-%d,%d,%d", i%7, i, i%13, i%11))
	}
	return lines
}

// upload creates a cluster and uploads n rows with the given per-replica
// sort columns, sized so the file spans several blocks.
func upload(t *testing.T, nodes, n int, sortCols []int) (*hdfs.Cluster, string) {
	t.Helper()
	cluster, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	lines := testLines(n)
	perLine := len(lines[0]) + 1
	client := &core.Client{
		Cluster: cluster,
		Config: core.LayoutConfig{
			Schema:      testSchema,
			SortColumns: sortCols,
			BlockSize:   perLine * n / 4, // ~4 blocks
		},
	}
	if _, err := client.Upload("/t", lines); err != nil {
		t.Fatal(err)
	}
	return cluster, "/t"
}

func cQuery() *query.Query {
	return &query.Query{
		Filter:     []query.Predicate{query.Between(2, schema.IntVal(2), schema.IntVal(5))},
		Projection: []int{0, 2},
	}
}

// dQuery filters on the other never-indexed attribute — the column the
// workload shifts to in the lifecycle tests.
func dQuery() *query.Query {
	return &query.Query{
		Filter:     []query.Predicate{query.Between(3, schema.IntVal(1), schema.IntVal(4))},
		Projection: []int{0, 3},
	}
}

// runQueryJob executes one adaptive job with the given query.
func runQueryJob(t *testing.T, cluster *hdfs.Cluster, file string, idx *Indexer, q *query.Query) *mapred.JobResult {
	t.Helper()
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask}
	res, err := engine.Run(&mapred.Job{
		Name:  "adaptive-test",
		File:  file,
		Input: &core.InputFormat{Cluster: cluster, Query: q, Adaptive: idx},
		Map: func(r mapred.Record, emit mapred.Emit) {
			if !r.Bad {
				emit(r.Row.Line(','), "")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.LastJob().Err; err != nil {
		t.Fatal(err)
	}
	return res
}

// runJob executes one adaptive job on the c-column query.
func runJob(t *testing.T, cluster *hdfs.Cluster, file string, idx *Indexer) *mapred.JobResult {
	t.Helper()
	return runQueryJob(t, cluster, file, idx, cQuery())
}

// missesOf reads the demand counted against one (file, column) stream.
func missesOf(idx *Indexer, file string, col int) int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.misses[planKey{file, col}]
}

// TestLedgerDemand: every (job, block) full scan a missing index caused is
// counted against its (file, column) stream, per stream and per job.
func TestLedgerDemand(t *testing.T) {
	cluster, file := upload(t, 6, 2000, []int{0, 1})
	blocks, _ := cluster.NameNode().FileBlocks(file)
	idx := New(cluster, 0, 0)
	idx.ObserveJob(file, 2, nil, blocks)
	idx.ObserveJob(file, 2, nil, blocks[:1])
	idx.ObserveJob(file, 3, blocks[1:], blocks[:1])
	for _, c := range []struct {
		file      string
		col, want int
	}{{file, 2, len(blocks) + 1}, {file, 3, 1}, {file, 1, 0}, {"/other", 2, 0}} {
		if got := missesOf(idx, c.file, c.col); got != c.want {
			t.Errorf("misses for (%s, %d) = %d, want %d", c.file, c.col, got, c.want)
		}
	}
}

func TestFirstJobOffersBoundedFraction(t *testing.T) {
	cluster, file := upload(t, 6, 2000, []int{0, 1})
	idx := New(cluster, 0.5, 0)
	res := runJob(t, cluster, file, idx)

	plan := idx.LastJob()
	blocks, _ := cluster.NameNode().FileBlocks(file)
	nBlocks := len(blocks)
	if plan.Column != 2 {
		t.Fatalf("adaptive column = %d, want 2", plan.Column)
	}
	if plan.Indexed != 0 || plan.Missing != nBlocks {
		t.Fatalf("plan coverage = %d indexed / %d missing, want 0 / %d", plan.Indexed, plan.Missing, nBlocks)
	}
	want := (nBlocks + 1) / 2 // ceil(0.5 × nBlocks)
	if plan.Offered != want || plan.Built != want {
		t.Fatalf("offered %d built %d, want %d", plan.Offered, plan.Built, want)
	}

	// The first job saw no index at all.
	st := res.TotalStats()
	if st.IndexScans != 0 || st.FullScans != nBlocks {
		t.Errorf("first job: %d index scans, %d full scans, want 0/%d", st.IndexScans, st.FullScans, nBlocks)
	}

	// The built blocks are registered with the namenode.
	indexed := 0
	for _, b := range blocks {
		if len(cluster.NameNode().GetHostsWithIndex(b, 2)) > 0 {
			indexed++
		}
	}
	if indexed != want {
		t.Errorf("%d blocks registered with an index on column 2, want %d", indexed, want)
	}

	// Demand was counted for every block.
	if got := missesOf(idx, file, 2); got != nBlocks {
		t.Errorf("misses = %d, want %d", got, nBlocks)
	}
}

func TestAdaptiveReplacesUnsortedReplica(t *testing.T) {
	cluster, file := upload(t, 6, 2000, []int{0, -1}) // replica 1 is unsorted PAX
	blocks, _ := cluster.NameNode().FileBlocks(file)
	before := make(map[hdfs.BlockID]int)
	for _, b := range blocks {
		before[b] = cluster.NameNode().ReplicaCount(b)
	}

	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx)
	plan := idx.LastJob()
	if plan.Built != len(blocks) || plan.ReplicasReplaced != len(blocks) || plan.ReplicasAdded != 0 {
		t.Fatalf("plan = %+v, want all %d blocks converted in place", plan, len(blocks))
	}
	for _, b := range blocks {
		if got := cluster.NameNode().ReplicaCount(b); got != before[b] {
			t.Errorf("block %d replica count %d, want unchanged %d", b, got, before[b])
		}
		if len(cluster.NameNode().GetHostsWithIndex(b, 2)) == 0 {
			t.Errorf("block %d has no replica indexed on column 2", b)
		}
	}
}

func TestAdaptiveAddsReplicaWhenAllSorted(t *testing.T) {
	cluster, file := upload(t, 6, 2000, []int{0, 1}) // both replicas sorted+indexed
	blocks, _ := cluster.NameNode().FileBlocks(file)

	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx)
	plan := idx.LastJob()
	if plan.Built != len(blocks) || plan.ReplicasAdded != len(blocks) || plan.ReplicasReplaced != 0 {
		t.Fatalf("plan = %+v, want all %d blocks stored as additional replicas", plan, len(blocks))
	}
	for _, b := range blocks {
		if got := cluster.NameNode().ReplicaCount(b); got != 3 {
			t.Errorf("block %d replica count %d, want 3 (2 static + 1 adaptive)", b, got)
		}
	}
}

// TestConvergenceAndEquivalence runs the same job repeatedly: the
// index-scan fraction must rise monotonically to 1.0, and every job must
// return exactly the same rows.
func TestConvergenceAndEquivalence(t *testing.T) {
	cluster, file := upload(t, 8, 3000, []int{0, 1, -1})
	blocks, _ := cluster.NameNode().FileBlocks(file)
	idx := New(cluster, 0.34, 0)

	var baseline []string
	lastFrac := -1.0
	converged := false
	for job := 0; job < 2*len(blocks)+2; job++ {
		res := runJob(t, cluster, file, idx)

		var rows []string
		for _, kv := range res.Output {
			rows = append(rows, kv.Key)
		}
		sort.Strings(rows)
		if baseline == nil {
			baseline = rows
			if len(baseline) == 0 {
				t.Fatal("query returned no rows")
			}
		} else if len(rows) != len(baseline) {
			t.Fatalf("job %d returned %d rows, baseline %d", job, len(rows), len(baseline))
		} else {
			for i := range rows {
				if rows[i] != baseline[i] {
					t.Fatalf("job %d row %d = %q, baseline %q", job, i, rows[i], baseline[i])
				}
			}
		}

		st := res.TotalStats()
		frac := float64(st.IndexScans) / float64(st.IndexScans+st.FullScans)
		if frac < lastFrac {
			t.Fatalf("job %d index-scan fraction %f < previous %f", job, frac, lastFrac)
		}
		if frac == 1.0 {
			converged = true
			break
		}
		if job > 0 && frac == lastFrac {
			t.Fatalf("job %d made no progress (fraction stuck at %f)", job, frac)
		}
		lastFrac = frac
	}
	if !converged {
		t.Fatal("index-scan fraction never reached 1.0")
	}
}

// TestAdaptiveRebuildsAfterNodeLoss: when the node holding a block's
// only adaptive index dies, the next job treats the block as missing
// again and rebuilds the index on a surviving node — Dir_rep's dead
// entries must not count as coverage.
func TestAdaptiveRebuildsAfterNodeLoss(t *testing.T) {
	cluster, file := upload(t, 6, 2000, []int{0, 1})
	idx := New(cluster, 1.0, 0)
	runJob(t, cluster, file, idx)
	blocks, _ := cluster.NameNode().FileBlocks(file)

	// Kill the node holding the first block's adaptive replica.
	hosts := cluster.NameNode().GetHostsWithIndex(blocks[0], 2)
	if len(hosts) != 1 {
		t.Fatalf("block %d has %d indexed replicas on column 2, want 1", blocks[0], len(hosts))
	}
	if err := cluster.KillNode(hosts[0]); err != nil {
		t.Fatal(err)
	}

	runJob(t, cluster, file, idx)
	plan := idx.LastJob()
	if plan.Missing == 0 || plan.Built == 0 {
		t.Fatalf("plan after node loss = %+v, want the orphaned blocks re-offered and rebuilt", plan)
	}
	for _, b := range blocks {
		alive := false
		for _, h := range cluster.NameNode().GetHostsWithIndex(b, 2) {
			if dn, err := cluster.DataNode(h); err == nil && dn.Alive() {
				alive = true
				break
			}
		}
		if !alive {
			t.Errorf("block %d has no alive replica indexed on column 2 after rebuild", b)
		}
	}
}

// TestAdaptiveSkipsWhenClusterFull: with replication == node count and
// no unsorted replica, there is nowhere to put a new indexed copy — the
// offered blocks are skipped cleanly (no error, no repeated build work)
// and the job still returns correct results.
func TestAdaptiveSkipsWhenClusterFull(t *testing.T) {
	cluster, file := upload(t, 2, 2000, []int{0, 1}) // replication 2 on 2 nodes
	blocks, _ := cluster.NameNode().FileBlocks(file)

	idx := New(cluster, 1.0, 0)
	res := runJob(t, cluster, file, idx) // runJob fails the test if the plan carries an error
	plan := idx.LastJob()
	if plan.Built != 0 || plan.Failed != 0 || plan.Skipped != len(blocks) {
		t.Fatalf("plan = %+v, want all %d offered blocks skipped without error", plan, len(blocks))
	}
	if len(res.Output) == 0 {
		t.Error("query returned no rows")
	}
}

// TestObserveOnlyWhenDisabled: an offer rate of 0 or below counts demand
// but never builds.
func TestObserveOnlyWhenDisabled(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		cluster, file := upload(t, 6, 2000, []int{0, 1})
		idx := New(cluster, rate, 0)
		runJob(t, cluster, file, idx)
		plan := idx.LastJob()
		if plan.Missing == 0 || plan.Offered != 0 || plan.Built != 0 {
			t.Fatalf("rate %v: plan = %+v, want blocks missing and nothing offered or built", rate, plan)
		}
		if got := missesOf(idx, file, 2); got != plan.Missing {
			t.Errorf("rate %v: misses = %d, want %d", rate, got, plan.Missing)
		}
	}
}

// TestBudgetCapsExtraStorage: with a byte budget roughly one replica
// wide, the indexer converts until the cap and then refuses further
// builds (BudgetDenied) instead of growing unboundedly.
func TestBudgetCapsExtraStorage(t *testing.T) {
	// All replicas sorted (on a and b): every conversion must add a
	// replica, so each build costs a full block against the budget.
	cluster, file := upload(t, 8, 2_000, []int{0, 1})

	// Discover a typical stored replica size from block 0.
	blocks, err := cluster.NameNode().FileBlocks(file)
	if err != nil {
		t.Fatal(err)
	}
	node := cluster.NameNode().GetHosts(blocks[0])[0]
	data, err := cluster.ReadBlockFrom(node, blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	blockSize := int64(len(data))
	// Room for ~1 replica, then deny: a stream never evicts its own
	// replicas.
	idx := New(cluster, 1.0, blockSize+blockSize/2)

	var denied, built int
	for j := 0; j < 4; j++ {
		runJob(t, cluster, file, idx)
		plan := idx.LastJob()
		built += plan.Built
		denied += plan.BudgetDenied
	}
	if built == 0 {
		t.Fatal("budget prevented every build; want at least one under the cap")
	}
	if denied == 0 {
		t.Fatal("no builds denied despite an exhausted budget")
	}
	// Overshoot is bounded by one replica.
	if extra := idx.ExtraBytes(); extra > idx.BudgetBytes()+2*blockSize {
		t.Errorf("extra storage %d far exceeds budget %d", extra, idx.BudgetBytes())
	}
	if got := idx.ExtraBytes(); got == 0 {
		t.Error("ExtraBytes = 0 after successful builds")
	}
}

// TestBudgetUnlimitedByDefault: BudgetBytes == 0 never denies.
func TestBudgetUnlimitedByDefault(t *testing.T) {
	cluster, file := upload(t, 8, 1_200, []int{0, -1})
	idx := New(cluster, 1.0, 0)
	for j := 0; j < 3; j++ {
		runJob(t, cluster, file, idx)
		if d := idx.LastJob().BudgetDenied; d != 0 {
			t.Fatalf("job %d denied %d builds with no budget set", j+1, d)
		}
	}
}

// TestLedgerConcurrentStress is the -race satellite for the demand
// counts: split phases of concurrent jobs count their misses while other
// goroutines read the indexer's state, and no miss is lost.
func TestLedgerConcurrentStress(t *testing.T) {
	cluster, file := upload(t, 6, 2000, []int{0, 1})
	blocks, _ := cluster.NameNode().FileBlocks(file)
	idx := New(cluster, 0, 0)
	const workers = 8
	const ops = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				col := (seed + i) % 3
				switch i % 4 {
				case 0:
					_ = idx.Replicas()
				case 1:
					_, _ = idx.Plan(file, col)
				default:
					idx.ObserveJob(file, col, nil, blocks)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for col := 0; col < 3; col++ {
		total += missesOf(idx, file, col)
	}
	if want := workers * ops / 2 * len(blocks); total != want {
		t.Errorf("%d misses counted across columns, want %d", total, want)
	}
}

// TestIndexerConcurrentAfterTask races AfterTask callbacks (as the engine
// fires them from parallel workers) against reads of the indexer's plans,
// registry and budget.
func TestIndexerConcurrentAfterTask(t *testing.T) {
	cluster, file := upload(t, 8, 2_000, []int{0, -1})
	idx := New(cluster, 1.0, 0)
	engine := &mapred.Engine{Cluster: cluster, PostTask: idx.AfterTask, Parallelism: 8}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				_ = idx.LastJob()
				_, _ = idx.Plan(file, 2)
				_ = idx.BudgetBytes()
				_ = idx.ExtraBytes()
				_ = idx.Replicas()
			}
		}
	}()
	res, err := engine.Run(&mapred.Job{
		Name:  "race",
		File:  file,
		Input: &core.InputFormat{Cluster: cluster, Query: cQuery(), Adaptive: idx},
		Map: func(r mapred.Record, emit mapred.Emit) {
			if !r.Bad {
				emit(r.Row.Line(','), "")
			}
		},
	})
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.LastJob().Err; err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Fatal("no output from race job")
	}
}
