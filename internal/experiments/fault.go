package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig8 reproduces the fault-tolerance experiment (§6.4.3): kill one node
// at 50% job progress with a 30 s failure-detection (expiry) interval and
// measure the slowdown for Hadoop, HAIL, and HAIL-1Idx (all replicas
// indexed on the same attribute).
//
// The degraded behaviour is measured for real: a node holding matching-
// index replicas is killed mid-job and the record readers' fallback to
// differently-sorted replicas (full scans) is counted. The slowdown is
// then composed from the cost model:
//
//	T_f = T_b + Expiry + Rebalance + FallbackDisplacement
//
// where Rebalance is the capacity lost for the remaining half of the
// tasks, and FallbackDisplacement charges the extra slot time of the
// tasks that degraded from index scan to full scan.
func (r *Runner) Fig8() (*Figure, error) {
	fig := &Figure{
		ID:    "Fig8",
		Title: "Fault tolerance: one node killed at 50% progress, 30 s expiry (Bob-Q1)",
		Unit:  "s",
	}
	bq := workload.BobQueries()[0]
	slots := float64(r.Nodes * sim.SlotsPerNode)
	aliveSlots := float64((r.Nodes - 1) * sim.SlotsPerNode)

	// --- Hadoop baseline: full scans are replica-agnostic; failure costs
	// detection time plus the lost capacity.
	fHadoop, err := r.fixture(UserVisits, Hadoop)
	if err != nil {
		return nil, err
	}
	resH, err := r.runQuery(fHadoop, bq, false)
	if err != nil {
		return nil, err
	}
	e2eH, _, _ := r.jobTimes(fHadoop, resH, false)
	taskH := r.cost(fHadoop, resH).taskSeconds(1)
	remaining := float64(fHadoop.scale.PaperBlocks) / 2
	rebalanceH := remaining * taskH * (1/aliveSlots - 1/slots)
	slowH := (sim.ExpirySeconds + rebalanceH) / e2eH * 100

	// --- HAIL (three different indexes) and HAIL-1Idx: real kill runs.
	type hailVariant struct {
		label string
		cols  []int
	}
	variants := []hailVariant{
		{"HAIL", specs[UserVisits].sortCols},
		{"HAIL-1Idx", []int{workload.UVVisitDate, workload.UVVisitDate, workload.UVVisitDate}},
	}
	var hailPts, slowPts []Point
	hailPts = append(hailPts, Point{"Hadoop", e2eH})
	slowPts = append(slowPts, Point{"Hadoop", slowH})

	for _, v := range variants {
		e2e, slow, err := r.hailFaultRun(v.cols, bq)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", v.label, err)
		}
		hailPts = append(hailPts, Point{v.label, e2e})
		slowPts = append(slowPts, Point{v.label, slow})
	}
	fig.Series = []Series{
		{Label: "JobRuntime", Points: hailPts},
		{Label: "Slowdown %", Points: slowPts},
	}
	return fig, nil
}

// hailFaultRun builds a fresh HAIL fixture with the given per-replica sort
// columns, measures the healthy run and the cost of the degraded access
// path (a PAX column scan — our fallback reads only the needed columns,
// cheaper than the paper's whole-block "standard Hadoop scanning"), then
// re-runs with a mid-job node kill and composes the degraded time.
func (r *Runner) hailFaultRun(sortCols []int, bq workload.BenchQuery) (e2e, slowdownPct float64, err error) {
	f, err := r.freshHAILFixture(UserVisits, r.BlockRows, sortCols)
	if err != nil {
		return 0, 0, err
	}

	// Healthy run.
	res, err := r.runQuery(f, bq, false)
	if err != nil {
		return 0, 0, err
	}
	e2e, _, _ = r.jobTimes(f, res, false)
	idxTask := r.cost(f, res).taskSeconds(1)

	// Fallback-path cost: the same projection with a same-selectivity
	// filter on a never-indexed attribute forces the PAX column scan a
	// degraded task performs.
	lo, hi := schema.IntVal(1), schema.IntVal(30) // ~3% of duration ∈ [1,999]
	scanQuery := &query.Query{
		Filter:     []query.Predicate{{Column: workload.UVDuration, Lo: &lo, Hi: &hi}},
		Projection: bq.Query.Projection,
	}
	scanBQ := workload.BenchQuery{Name: "fallback-scan", Query: scanQuery}
	resScan, err := r.runQuery(f, scanBQ, false)
	if err != nil {
		return 0, 0, err
	}
	scanTask := r.cost(f, resScan).taskSeconds(1)

	// Kill a node that holds replicas indexed on the filter attribute, at
	// 50% progress, and measure how many blocks degraded to full scans.
	victim := f.cluster.NameNode().GetHostsWithIndex(f.hailSum.BlockIDs[0], bq.Query.Filter[0].Column)[0]
	resKill, err := runKilled(f.cluster, victim, &mapred.Job{
		Name: bq.Name + "-kill", File: f.file,
		Input:    &core.InputFormat{Cluster: f.cluster, Query: bq.Query},
		MapBatch: workload.PassthroughMapBatch,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("fault: %v", err)
	}
	st := resKill.TotalStats()
	fallbackFraction := float64(st.FullScans) / float64(st.Blocks)

	slots := float64(r.Nodes * sim.SlotsPerNode)
	aliveSlots := float64((r.Nodes - 1) * sim.SlotsPerNode)
	remaining := float64(f.scale.PaperBlocks) / 2
	rebalance := remaining * idxTask * (1/aliveSlots - 1/slots)
	displacement := fallbackFraction * float64(f.scale.PaperBlocks) *
		(scanTask - idxTask) / aliveSlots
	if displacement < 0 {
		displacement = 0
	}
	slowdownPct = (sim.ExpirySeconds + rebalance + displacement) / e2e * 100
	return e2e, slowdownPct, nil
}

// runKilled runs job and kills victim once half its tasks are done. The
// engine runs the tasks inline and in order (Parallelism 1), so which
// blocks the kill affects — and every figure built on it — does not depend
// on who wins a race with the kill. A kill that failed is an error: no
// failover happened, so nothing measured would mean anything.
func runKilled(cluster *hdfs.Cluster, victim hdfs.NodeID, job *mapred.Job) (*mapred.JobResult, error) {
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	var once sync.Once
	var killErr error
	e.OnProgress = func(done, total int) {
		if done >= total/2 {
			once.Do(func() { killErr = cluster.KillNode(victim) })
		}
	}
	res, err := e.Run(job)
	if err == nil && killErr != nil {
		err = fmt.Errorf("killing node %d failed: %v", victim, killErr)
	}
	return res, err
}
