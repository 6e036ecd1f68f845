package experiments

import (
	"testing"

	"repro/internal/workload"
)

// TestThreeSystemResultEquivalence is the benchmark workload's
// cross-system correctness invariant: for every benchmark query, the
// full text scan (Hadoop), the trojan index scan (Hadoop++) and the
// per-replica clustered index scan (HAIL, with and without HailSplitting)
// must produce exactly the same multiset of result rows.
func TestThreeSystemResultEquivalence(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	for _, w := range []Workload{UserVisits, Synthetic} {
		for _, bq := range specs[w].queries() {
			var reference map[string]int
			var refSys string
			for _, sys := range []System{Hadoop, HadoopPP, HAIL} {
				f, err := r.fixture(w, sys)
				if err != nil {
					t.Fatal(err)
				}
				modes := []bool{false}
				if sys == HAIL {
					modes = []bool{false, true} // splitting off and on
				}
				for _, splitting := range modes {
					res, err := r.runQuery(f, bq, splitting)
					if err != nil {
						t.Fatalf("%s %s on %s: %v", w, bq.Name, sys, err)
					}
					got := make(map[string]int)
					for _, kv := range res.Output {
						got[kv.Key]++
					}
					if reference == nil {
						reference = got
						refSys = sys.String()
						continue
					}
					if len(got) != len(reference) {
						t.Fatalf("%s %s: %s returned %d distinct rows, %s returned %d",
							w, bq.Name, sys, len(got), refSys, len(reference))
					}
					for k, v := range reference {
						if got[k] != v {
							t.Fatalf("%s %s: row %q appears %d times on %s, %d on %s",
								w, bq.Name, k, got[k], sys, v, refSys)
						}
					}
				}
			}
			if reference == nil {
				t.Fatalf("%s %s produced no reference result", w, bq.Name)
			}
			// Sanity: selective queries must actually select something on
			// these fixtures (needles are planted; range selectivities
			// are percents of tens of thousands of rows).
			if len(reference) == 0 {
				t.Errorf("%s %s returned no rows at all", w, bq.Name)
			}
		}
	}
}

// TestUploadSummariesConsistent cross-checks the measured sizes the cost
// model consumes: binary ratios in sane ranges, per-replica stored bytes
// accounted, block counts aligned across systems on the same data.
func TestUploadSummariesConsistent(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	fh, err := r.fixture(UserVisits, HAIL)
	if err != nil {
		t.Fatal(err)
	}
	sum := fh.hailSum
	if sum.Rows == 0 || sum.Blocks == 0 {
		t.Fatalf("empty HAIL summary: %+v", sum)
	}
	ratio := float64(sum.PaxBytes) / float64(sum.TextBytes)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("UserVisits binary ratio %.2f outside [0.8,1.2]", ratio)
	}
	// 3 sorted replicas: sorted bytes = 3 × pax bytes.
	if sum.SortedBytes != 3*sum.PaxBytes {
		t.Errorf("SortedBytes = %d, want %d", sum.SortedBytes, 3*sum.PaxBytes)
	}
	if sum.IndexBytes == 0 {
		t.Error("no index bytes recorded")
	}
	// Stored bytes exceed 3× pax (frames + indexes) but not by much.
	if sum.StoredBytes < 3*sum.PaxBytes || sum.StoredBytes > 3*sum.PaxBytes+3*sum.IndexBytes+int64(sum.Blocks*3*64) {
		t.Errorf("StoredBytes = %d implausible for PaxBytes = %d", sum.StoredBytes, sum.PaxBytes)
	}

	fs, err := r.fixture(Synthetic, HAIL)
	if err != nil {
		t.Fatal(err)
	}
	synRatio := float64(fs.hailSum.PaxBytes) / float64(fs.hailSum.TextBytes)
	if synRatio < 0.4 || synRatio > 0.65 {
		t.Errorf("Synthetic binary ratio %.2f outside [0.4,0.65] (paper implies ~0.54)", synRatio)
	}
}

// TestScaleFactors checks the laptop→paper scaling arithmetic.
func TestScaleFactors(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	f, err := r.fixture(UserVisits, HAIL)
	if err != nil {
		t.Fatal(err)
	}
	s := f.scale
	if s.PaperBlocks < 2500 || s.PaperBlocks > 3500 {
		t.Errorf("PaperBlocks = %d, want ≈3000 for 200 GB at 64 MB", s.PaperBlocks)
	}
	if s.RowScale <= 1 {
		t.Errorf("RowScale = %v, must scale up", s.RowScale)
	}
	if s.RealBlocks != f.hailSum.Blocks {
		t.Errorf("RealBlocks = %d, summary says %d", s.RealBlocks, f.hailSum.Blocks)
	}
	wantRowScale := s.PaperRowsPerBlock / s.RealRowsPerBlock
	if diff := s.RowScale - wantRowScale; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("RowScale inconsistent: %v vs %v", s.RowScale, wantRowScale)
	}
}

// TestSynQueriesUseOnlyOneIndex confirms the §6.2 setup: all Synthetic
// queries filter on attr1, so although HAIL created three indexes, only
// the attr1 replica is ever chosen.
func TestSynQueriesUseOnlyOneIndex(t *testing.T) {
	skipIfShort(t)
	r := quickRunner()
	f, err := r.fixture(Synthetic, HAIL)
	if err != nil {
		t.Fatal(err)
	}
	for _, bq := range workload.SynQueries() {
		res, err := r.runQuery(f, bq, false)
		if err != nil {
			t.Fatal(err)
		}
		st := res.TotalStats()
		if st.IndexScans != f.scale.RealBlocks {
			t.Errorf("%s: %d index scans, want %d", bq.Name, st.IndexScans, f.scale.RealBlocks)
		}
		for _, task := range res.Tasks {
			for _, b := range task.Split.Blocks {
				node, pinned := task.Split.Replica[b]
				if !pinned {
					t.Fatalf("%s: block %d of an index-scan split is not pinned", bq.Name, b)
				}
				info, ok := f.cluster.NameNode().ReplicaInfo(b, node)
				if !ok || info.SortColumn != 0 {
					t.Fatalf("%s: block %d scheduled to replica indexed on %d, want attr1",
						bq.Name, b, info.SortColumn)
				}
			}
		}
	}
}
