package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/hdfs"
)

// The experiment tests run the full pipelines on quick fixtures and assert
// the paper's qualitative claims: orderings, approximate ratios, and
// crossover points. Figure mode's exact numbers are frozen by
// cmd/hailbench's TestFiguresGolden.

func quickRunner() *Runner { return NewQuickRunner() }

// skipIfShort keeps the CI -short lane fast: the full paper-figure suite
// (~10 s of quick-fixture uploads and queries) stays the local tier-1,
// while -short still runs the adaptive suite and the pure-logic tests.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-figure suite skipped in -short mode")
	}
}

// TestRunnerDoesNotRetainClusters: a trajectory experiment's cluster is
// private to it. Once the experiment lets go of its fixture, nothing in
// the Runner may keep the cluster — every stored replica's bytes — alive.
func TestRunnerDoesNotRetainClusters(t *testing.T) {
	r := quickRunner()
	freed := make(chan struct{})
	func() {
		f, err := r.freshHAILFixture(Synthetic, r.BlockRows, specs[Synthetic].sortCols)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(f.cluster, func(*hdfs.Cluster) { close(freed) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(r)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the Runner still reaches a fresh fixture's cluster after the fixture was dropped")
}

func value(f *Figure, series, x string) float64 {
	for _, s := range f.Series {
		if s.Label != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Seconds
			}
		}
	}
	return -1
}

func TestFig4aShapes(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	fig, err := r.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	hadoop := value(fig, "Hadoop", "0 idx")
	hail0 := value(fig, "HAIL", "0 idx")
	hail3 := value(fig, "HAIL", "3 idx")
	hpp0 := value(fig, "Hadoop++", "0 idx")
	hpp1 := value(fig, "Hadoop++", "1 idx")

	// Paper: HAIL ≈ Hadoop even with 3 indexes (within ~15%), Hadoop++
	// 5.1× / 8× slower.
	if hail0 < 0.7*hadoop || hail0 > 1.15*hadoop {
		t.Errorf("HAIL-0/Hadoop = %.2f, want ≈1", hail0/hadoop)
	}
	if hail3 < hail0 {
		t.Error("indexes must not be free")
	}
	if hail3 > 1.25*hadoop {
		t.Errorf("HAIL-3/Hadoop = %.2f, want ≈1.14", hail3/hadoop)
	}
	if ratio := hpp0 / hadoop; ratio < 3.5 || ratio > 7 {
		t.Errorf("Hadoop++(0)/Hadoop = %.2f, want ≈5.1", ratio)
	}
	if ratio := hpp1 / hadoop; ratio < 6 || ratio > 11 {
		t.Errorf("Hadoop++(1)/Hadoop = %.2f, want ≈8", ratio)
	}
	// Hadoop++ cannot create 2+ indexes; Hadoop creates none.
	if value(fig, "Hadoop++", "2 idx") >= 0 || value(fig, "Hadoop", "1 idx") >= 0 {
		t.Error("impossible configurations must be absent")
	}
}

func TestFig4bShapes(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	fig, err := r.Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	hadoop := value(fig, "Hadoop", "0 idx")
	hail3 := value(fig, "HAIL", "3 idx")
	// Paper: HAIL beats Hadoop by ~1.6× on Synthetic even with 3 indexes
	// (binary representation shrinks the data).
	if ratio := hadoop / hail3; ratio < 1.3 || ratio > 2.1 {
		t.Errorf("Hadoop/HAIL-3 = %.2f, want ≈1.6", ratio)
	}
}

func TestFig4cCrossover(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	fig, err := r.Fig4c()
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.3.2: HAIL stores six indexed replicas in about the time
	// Hadoop stores three plain ones.
	hadoop3 := value(fig, "Hadoop", "r=3")
	hail6 := value(fig, "HAIL", "r=6")
	if hail6 > 1.1*hadoop3 {
		t.Errorf("HAIL r=6 (%.0f) should be ≈ Hadoop r=3 (%.0f)", hail6, hadoop3)
	}
	// Monotone in replication for both systems.
	for _, sys := range []string{"Hadoop", "HAIL"} {
		prev := -1.0
		for _, x := range []string{"r=3", "r=5", "r=6", "r=7", "r=10"} {
			v := value(fig, sys, x)
			if v < prev {
				t.Errorf("%s not monotone at %s", sys, x)
			}
			prev = v
		}
	}
}

func TestTable2ScaleUp(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	ta, err := r.Table2a()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := r.Table2b()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the HAIL-vs-Hadoop speedup improves with better CPUs on both
	// datasets (Table 2: 0.54→0.74→0.87 UV, 1.15→1.38→1.58 Syn), because
	// HAIL's extra work is CPU.
	for _, fig := range []*Figure{ta, tb} {
		weak := value(fig, "SystemSpeedup", "m1.large")
		quad := value(fig, "SystemSpeedup", "cc1.4xlarge")
		phys := value(fig, "SystemSpeedup", "physical")
		if !(weak < quad) {
			t.Errorf("%s: speedup should improve m1.large (%.2f) → cc1.4xlarge (%.2f)", fig.ID, weak, quad)
		}
		if phys < quad*0.8 {
			t.Errorf("%s: physical speedup %.2f unexpectedly low", fig.ID, phys)
		}
	}
	// Synthetic speedups exceed UserVisits speedups everywhere (binary
	// shrink helps HAIL).
	for _, x := range []string{"m1.large", "cc1.4xlarge", "physical"} {
		if value(tb, "SystemSpeedup", x) <= value(ta, "SystemSpeedup", x) {
			t.Errorf("Synthetic speedup at %s should exceed UserVisits'", x)
		}
	}
}

func TestFig5ScaleOut(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	fig, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.3.4: roughly constant upload times under scale-out, and
	// HAIL at or below Hadoop on both datasets at 100 nodes.
	for _, s := range fig.Series {
		base := s.Points[0].Seconds
		for _, p := range s.Points {
			if p.Seconds < 0.8*base || p.Seconds > 1.3*base {
				t.Errorf("%s at %s: %.0f s, want roughly constant (%.0f s at 10 nodes)", s.Label, p.X, p.Seconds, base)
			}
		}
	}
	if value(fig, "HAIL Syn", "100 nodes") >= value(fig, "Hadoop Syn", "100 nodes") {
		t.Error("HAIL should beat Hadoop on Synthetic at 100 nodes")
	}
}

func TestFig6Shapes(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	a, err := r.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Fig6c()
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"Bob-Q1", "Bob-Q2", "Bob-Q3", "Bob-Q4", "Bob-Q5"}
	for _, q := range queries {
		hadoop := value(a, "Hadoop", q)
		hail := value(a, "HAIL", q)
		// Paper Fig 6(a): HAIL beats Hadoop end-to-end on every query,
		// but only by ~1.5–2× — the scheduling overhead dominates.
		if hail >= hadoop {
			t.Errorf("%s: HAIL (%.0f) not faster than Hadoop (%.0f)", q, hail, hadoop)
		}
		if hadoop/hail > 4 {
			t.Errorf("%s: HAIL e2e speedup %.1f× too large without HailSplitting", q, hadoop/hail)
		}
		// Fig 6(b): record-reader speedups are much larger (up to 46×).
		rrHadoop := value(b, "Hadoop", q)
		rrHail := value(b, "HAIL", q)
		if rrHadoop/rrHail < 2 {
			t.Errorf("%s: RR speedup %.1f×, want ≫1", q, rrHadoop/rrHail)
		}
		// Fig 6(c): overhead dominates the end-to-end time for HAIL
		// (the paper's bars are ~70–95% overhead).
		if ov := value(c, "HAIL", q); ov < 0.6*hail {
			t.Errorf("%s: HAIL overhead %.0f should dominate e2e %.0f", q, ov, hail)
		}
	}
	// Hadoop++ with its sourceIP index: Q2/Q3 much faster than Q1.
	if value(a, "Hadoop++", "Bob-Q2") >= value(a, "Hadoop++", "Bob-Q1") {
		t.Error("Hadoop++ indexed query should beat its full scan")
	}
	// HAIL end-to-end times are nearly flat across queries (dispatch
	// bound) — the paper's striking observation.
	if value(a, "HAIL", "Bob-Q5") > 1.3*value(a, "HAIL", "Bob-Q2") {
		t.Error("HAIL end-to-end times should be nearly flat without splitting")
	}
}

func TestFig7Shapes(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	a, err := r.Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	// Projection width must not change Hadoop++ RR times (row layout)
	// but must change HAIL's (PAX). Selectivity changes both.
	hppQ1a, hppQ1c := value(b, "Hadoop++", "Syn-Q1a"), value(b, "Hadoop++", "Syn-Q1c")
	if diff := hppQ1a - hppQ1c; diff < -0.05*hppQ1a || diff > 0.05*hppQ1a {
		t.Errorf("Hadoop++ RR should be projection-invariant: Q1a=%.0f Q1c=%.0f", hppQ1a, hppQ1c)
	}
	if !(value(b, "HAIL", "Syn-Q1a") > value(b, "HAIL", "Syn-Q1b") &&
		value(b, "HAIL", "Syn-Q1b") > value(b, "HAIL", "Syn-Q1c")) {
		t.Error("HAIL RR should decrease with narrower projections")
	}
	if value(b, "HAIL", "Syn-Q2a") >= value(b, "HAIL", "Syn-Q1a") {
		t.Error("HAIL RR should decrease with selectivity")
	}
	// Paper: selectivity does NOT visibly affect end-to-end times
	// (framework overhead); all HAIL e2e within a small band.
	if value(a, "HAIL", "Syn-Q1a") > 1.35*value(a, "HAIL", "Syn-Q2c") {
		t.Error("HAIL Synthetic e2e should be nearly flat")
	}
}

func TestFig8FaultTolerance(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	fig, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	hadoopSlow := value(fig, "Slowdown %", "Hadoop")
	hailSlow := value(fig, "Slowdown %", "HAIL")
	oneIdxSlow := value(fig, "Slowdown %", "HAIL-1Idx")
	// Paper Fig 8: slowdowns around 5–11%; HAIL-1Idx lowest because
	// failed tasks still index-scan.
	for _, v := range []float64{hadoopSlow, hailSlow, oneIdxSlow} {
		if v < 1 || v > 25 {
			t.Errorf("slowdown %.1f%% outside plausible band", v)
		}
	}
	if oneIdxSlow > hailSlow {
		t.Errorf("HAIL-1Idx slowdown (%.1f%%) should not exceed HAIL's (%.1f%%)", oneIdxSlow, hailSlow)
	}
	if value(fig, "JobRuntime", "HAIL") >= value(fig, "JobRuntime", "Hadoop") {
		t.Error("HAIL baseline should beat Hadoop")
	}
}

func TestFig9HeadlineSpeedups(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	a, err := r.Fig9a()
	if err != nil {
		t.Fatal(err)
	}
	bfig, err := r.Fig9b()
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Fig9c()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: HAIL up to 68× faster than Hadoop on Bob's queries with
	// HailSplitting (Bob-Q2/Q3); require a large speedup.
	best := 0.0
	for _, q := range []string{"Bob-Q1", "Bob-Q2", "Bob-Q3", "Bob-Q4", "Bob-Q5"} {
		sp := value(a, "Hadoop", q) / value(a, "HAIL", q)
		if sp > best {
			best = sp
		}
	}
	if best < 30 {
		t.Errorf("best Bob speedup %.0f×, want ≫30 (paper: 68×)", best)
	}
	// Synthetic: up to 26× (paper); require ≥8×.
	bestSyn := 0.0
	for _, q := range []string{"Syn-Q1a", "Syn-Q1b", "Syn-Q1c", "Syn-Q2a", "Syn-Q2b", "Syn-Q2c"} {
		sp := value(bfig, "Hadoop", q) / value(bfig, "HAIL", q)
		if sp > bestSyn {
			bestSyn = sp
		}
	}
	if bestSyn < 8 {
		t.Errorf("best Synthetic speedup %.0f×, want ≥8 (paper: 26×)", bestSyn)
	}
	// Fig 9(c): whole-workload speedups (paper: 39× Bob, 9× Synthetic).
	bobSpeedup := value(c, "Hadoop", "Bob") / value(c, "HAIL", "Bob")
	synSpeedup := value(c, "Hadoop", "Synthetic") / value(c, "HAIL", "Synthetic")
	if bobSpeedup < 15 {
		t.Errorf("Bob workload speedup %.0f×, want ≥15 (paper: 39×)", bobSpeedup)
	}
	if synSpeedup < 5 {
		t.Errorf("Synthetic workload speedup %.0f×, want ≥5 (paper: 9×)", synSpeedup)
	}
	// Bob's workload benefits more than Synthetic (multiple usable
	// indexes + higher selectivities).
	if bobSpeedup <= synSpeedup {
		t.Errorf("Bob speedup (%.0f×) should exceed Synthetic's (%.0f×)", bobSpeedup, synSpeedup)
	}
}

func TestFigureString(t *testing.T) {
	fig := &Figure{
		ID: "X", Title: "t", Unit: "s",
		Series: []Series{{Label: "A", Points: []Point{{"p", 1.5}, {"q", -1}}}},
	}
	s := fig.String()
	for _, want := range []string{"X — t [s]", "A", "1.5", "-"} {
		if !contains(s, want) {
			t.Errorf("Figure.String() missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
