package experiments

import (
	"strings"
	"testing"
)

// TestExpCacheTrajectory: a cold job populates the cache, an identical hot
// job answers ≥90% of its blocks from it with measurably lower task work,
// and the adaptive phase's replica replacements invalidate affected
// entries.
func TestExpCacheTrajectory(t *testing.T) {
	r := quickRunner()
	rep, err := r.ExpCache(UserVisits, 6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 6 {
		t.Fatalf("got %d jobs, want 6", len(rep.Jobs))
	}
	cold, hot := rep.Jobs[0], rep.Jobs[1]

	if cold.HitBlocks != 0 {
		t.Errorf("cold job hit %d blocks", cold.HitBlocks)
	}
	if cold.Misses == 0 || cold.CacheEntries == 0 {
		t.Errorf("cold job did not populate the cache: %+v", cold)
	}

	if hot.HitRate < 0.9 {
		t.Errorf("hot job hit rate %.2f, want ≥ 0.9", hot.HitRate)
	}
	if hot.WorkSeconds >= 0.5*cold.WorkSeconds {
		t.Errorf("hot job map work %.2f s not measurably lower than cold %.2f s",
			hot.WorkSeconds, cold.WorkSeconds)
	}
	if hot.Seconds > cold.Seconds+1e-9 {
		t.Errorf("hot job e2e %.2f s slower than cold %.2f s", hot.Seconds, cold.Seconds)
	}
	if rep.BytesSaved == 0 {
		t.Error("no read bytes saved recorded")
	}

	// The adaptive phase must convert blocks and invalidate their
	// entries.
	var built int
	var invalidations int64
	for _, j := range rep.Jobs[cacheAdaptiveFrom-1:] {
		built += j.BlocksBuilt
		invalidations += j.Invalidations
	}
	if built == 0 {
		t.Fatal("adaptive phase converted no blocks")
	}
	if invalidations == 0 {
		t.Fatal("replica replacements invalidated no cache entries")
	}

	// After invalidation the next job recomputes exactly the affected
	// blocks (plus any whose scheduling moved) and re-admits them.
	after := rep.Jobs[cacheAdaptiveFrom] // first job after conversions began
	if after.Misses == 0 {
		t.Errorf("post-invalidation job had no misses: %+v", after)
	}

	// Row counts are constant across the sequence.
	for _, j := range rep.Jobs {
		if j.Rows != cold.Rows {
			t.Errorf("job %d returned %d rows, cold job %d", j.Job, j.Rows, cold.Rows)
		}
	}
}

// TestExpCacheFigure sanity-checks the printable report.
func TestExpCacheFigure(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	rep, err := r.ExpCache(Synthetic, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figure()
	if fig.ID != "FigCache" || len(fig.Series) != 4 {
		t.Fatalf("unexpected figure shape: %+v", fig)
	}
	s := rep.String()
	for _, want := range []string{"cache hits [%]", "invalidated", "adaptive phase converted"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
