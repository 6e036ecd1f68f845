package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/workload"
)

// ExpObs runs the benchmark query set with the observability layer fully
// wired — per-query trace, process metrics registry, namenode gauges —
// and reports the task-latency distribution each query's registry
// histograms recorded. Three gates run before anything is reported:
//
//  1. Equivalence: every traced run's output is byte-identical to the
//     same query executed with observability disabled (the layer must
//     not change execution).
//  2. Trace validity: the span tree validates — every span closed
//     exactly once, children nested, timestamps monotonic.
//  3. Coverage: the root span accounts for ≥90% of the measured
//     wall-clock, and its phase children for ≥85% of the root — the
//     trace explains the run rather than sampling it.

// ObsQuery is one query's observed run.
type ObsQuery struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	Tasks int    `json:"tasks"`
	Spans int    `json:"spans"`
	// Task-latency quantiles from the registry's engine.task_seconds
	// histogram (milliseconds; bucket upper bounds).
	TaskP50Ms float64 `json:"task_p50_ms"`
	TaskP95Ms float64 `json:"task_p95_ms"`
	TaskP99Ms float64 `json:"task_p99_ms"`
	// WaitP99Ms is the p99 of time tasks spent queued before a worker
	// picked them up.
	WaitP99Ms float64 `json:"wait_p99_ms"`
	// WallMs is the measured wall-clock of the traced run; RootCoverage
	// is root-span duration / wall-clock, PhaseCoverage the sum of the
	// root's direct phase children / root-span duration.
	WallMs        float64 `json:"wall_ms"`
	RootCoverage  float64 `json:"root_coverage"`
	PhaseCoverage float64 `json:"phase_coverage"`
}

// ObsReport is the full result of the observability experiment: one entry
// per benchmark query plus the final registry snapshot.
type ObsReport struct {
	Workload Workload     `json:"-"`
	Queries  []ObsQuery   `json:"queries"`
	Metrics  []obs.Metric `json:"metrics"`
}

// obsBenchQueries picks the observed query set, one per scan shape: a
// selective full scan (no usable index — every row flows through the
// kernels), a selective index scan (the kernels run over the
// index-narrowed range), and a wide no-filter materialization.
func obsBenchQueries(w Workload) []struct {
	name string
	q    *query.Query
} {
	indexed := workload.SynQueries()[0].Query // @1 between(0,99), wide proj
	if w == UserVisits {
		indexed = workload.BobQueries()[4].Query // @4 between(1,100), 20%
	}
	return []struct {
		name string
		q    *query.Query
	}{
		{"scan-sel", adaptiveQuery(w)},
		{"index-sel", indexed},
		{"wide-scan", &query.Query{}},
	}
}

// ExpObs runs the observability experiment on the HAIL fixture.
func (r *Runner) ExpObs(w Workload) (*ObsReport, error) {
	f, err := r.fixture(w, HAIL)
	if err != nil {
		return nil, err
	}
	rep := &ObsReport{Workload: w}
	reg := obs.NewRegistry()
	f.cluster.NameNode().BindObs(reg)

	for _, bq := range obsBenchQueries(w) {
		input := &core.InputFormat{
			Cluster: f.cluster, Query: bq.q,
			Splitting: true, SplitsPerNode: SplitsPerNodePaper,
		}
		sig, _ := input.QuerySignature()

		// Reference run, observability disabled: the equivalence baseline.
		base := &mapred.Engine{Cluster: f.cluster}
		baseRes, err := base.Run(&mapred.Job{
			Name: "obs-base-" + bq.name, File: f.file,
			Input: input, MapBatch: workload.PassthroughMapBatch,
		})
		if err != nil {
			return nil, err
		}

		// Per-query histograms need a per-query registry; the process-wide
		// one (reg) accumulates across queries for the final snapshot.
		qreg := obs.NewRegistry()
		tr := obs.NewTrace("obs-" + bq.name)
		e := &mapred.Engine{Cluster: f.cluster, Obs: qreg}
		start := time.Now()
		res, err := e.Run(&mapred.Job{
			Name: "obs-" + bq.name, File: f.file,
			Input: input, MapBatch: workload.PassthroughMapBatch,
			Trace: tr,
		})
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}

		// Gate 1: byte-identical to the unobserved run.
		if len(res.Output) != len(baseRes.Output) {
			return nil, fmt.Errorf("obs: %s: traced run emitted %d records, baseline %d",
				bq.name, len(res.Output), len(baseRes.Output))
		}
		for i := range res.Output {
			if res.Output[i] != baseRes.Output[i] {
				return nil, fmt.Errorf("obs: %s: output %d differs from the unobserved run", bq.name, i)
			}
		}
		if res.TotalStats() != baseRes.TotalStats() {
			return nil, fmt.Errorf("obs: %s: stats diverge from the unobserved run:\nbase:   %+v\ntraced: %+v",
				bq.name, baseRes.TotalStats(), res.TotalStats())
		}

		// Gate 2: structural validity.
		if err := tr.Validate(); err != nil {
			return nil, err
		}

		// Gate 3: coverage. Span 0 is the run root; its direct children are
		// the contiguous phases.
		spans := tr.SpanInfos()
		if len(spans) == 0 || spans[0].Name != "run" {
			return nil, fmt.Errorf("obs: %s: trace has no run root", bq.name)
		}
		rootDur := spans[0].Dur()
		var phaseSum time.Duration
		for _, s := range spans[1:] {
			if s.Parent == 0 {
				phaseSum += s.Dur()
			}
		}
		rootCov := float64(rootDur) / float64(wall)
		phaseCov := float64(phaseSum) / float64(rootDur)
		if rootCov < 0.9 {
			return nil, fmt.Errorf("obs: %s: root span covers %.0f%% of wall-clock, want ≥90%%", bq.name, 100*rootCov)
		}
		if phaseCov < 0.85 {
			return nil, fmt.Errorf("obs: %s: phase spans cover %.0f%% of the root, want ≥85%%", bq.name, 100*phaseCov)
		}

		h := qreg.Histogram("engine.task_seconds")
		wait := qreg.Histogram("engine.task_wait_seconds")
		q := ObsQuery{
			Name: bq.name, Query: sig,
			Tasks: len(res.Tasks), Spans: len(spans),
			TaskP50Ms:     1e3 * h.Quantile(0.5).Seconds(),
			TaskP95Ms:     1e3 * h.Quantile(0.95).Seconds(),
			TaskP99Ms:     1e3 * h.Quantile(0.99).Seconds(),
			WaitP99Ms:     1e3 * wait.Quantile(0.99).Seconds(),
			WallMs:        1e3 * wall.Seconds(),
			RootCoverage:  rootCov,
			PhaseCoverage: phaseCov,
		}
		if q.TaskP50Ms <= 0 || q.TaskP99Ms <= 0 {
			return nil, fmt.Errorf("obs: %s: degenerate task-latency quantiles (p50=%.3f p99=%.3f)", bq.name, q.TaskP50Ms, q.TaskP99Ms)
		}
		rep.Queries = append(rep.Queries, q)

		// Fold the per-query counters into the process-wide registry so the
		// snapshot reflects the whole run.
		for _, m := range qreg.Snapshot() {
			if m.Kind == "counter" {
				reg.Counter(m.Name).Add(m.Value)
			}
		}
	}
	rep.Metrics = reg.Snapshot()
	return rep, nil
}

// Figure renders the per-query task-latency quantiles.
func (rep *ObsReport) Figure() *Figure {
	fig := &Figure{
		ID:    "FigObs",
		Title: fmt.Sprintf("Observed task-latency distribution, %s (measured)", rep.Workload),
		Unit:  "ms",
	}
	var p50, p95, p99 Series
	p50.Label = "task p50 [ms]"
	p95.Label = "task p95 [ms]"
	p99.Label = "task p99 [ms]"
	for _, q := range rep.Queries {
		p50.Points = append(p50.Points, Point{q.Name, q.TaskP50Ms})
		p95.Points = append(p95.Points, Point{q.Name, q.TaskP95Ms})
		p99.Points = append(p99.Points, Point{q.Name, q.TaskP99Ms})
	}
	fig.Series = []Series{p50, p95, p99}
	return fig
}

// String renders the figure plus per-query coverage lines.
func (rep *ObsReport) String() string {
	var b strings.Builder
	b.WriteString(rep.Figure().String())
	for _, q := range rep.Queries {
		fmt.Fprintf(&b, "%s: %d tasks, %d spans, %.1f ms wall — root covers %.0f%%, phases %.0f%%, outputs byte-identical to unobserved run\n",
			q.Name, q.Tasks, q.Spans, q.WallMs, 100*q.RootCoverage, 100*q.PhaseCoverage)
	}
	return b.String()
}
