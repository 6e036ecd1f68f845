package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestTraceCoversWideScan gates the trace's coverage on a job that runs for
// milliseconds: the wide scan (no filter, every attribute) over the quick
// HAIL fixture, traced with a metrics registry wired. The root span covers
// ≥90% of the measured wall-clock and the run's phase children cover ≥85%
// of the root, so the trace explains the run rather than sampling it.
// mapred's TestJobTraceSpanTree checks the tree's structure on a job too
// short for these ratios to mean anything.
func TestTraceCoversWideScan(t *testing.T) {
	f, err := quickRunner().fixture(UserVisits, HAIL)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("wide-scan")
	e := &mapred.Engine{Cluster: f.cluster, Obs: obs.NewRegistry()}
	start := time.Now()
	_, err = e.Run(&mapred.Job{
		Name: "wide-scan", File: f.file,
		Input: &core.InputFormat{
			Cluster: f.cluster, Query: &query.Query{},
			Splitting: true, SplitsPerNode: SplitsPerNodePaper,
		},
		MapBatch: workload.PassthroughMapBatch,
		Trace:    tr,
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Span 0 is the run root; its direct children are the contiguous phases.
	spans := tr.SpanInfos()
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatal("trace has no run root")
	}
	root := spans[0].Dur()
	var phases time.Duration
	for _, s := range spans[1:] {
		if s.Parent == 0 {
			phases += s.Dur()
		}
	}
	rootCov, phaseCov := float64(root)/float64(wall), float64(phases)/float64(root)
	t.Logf("wall %v: root covers %.1f%%, phases %.1f%% of the root", wall, 100*rootCov, 100*phaseCov)
	if rootCov < 0.9 {
		t.Errorf("root span covers %.0f%% of wall-clock, want ≥90%%", 100*rootCov)
	}
	if phaseCov < 0.85 {
		t.Errorf("phase spans cover %.0f%% of the root, want ≥85%%", 100*phaseCov)
	}
}
