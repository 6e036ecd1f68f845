package core

import (
	"slices"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/workload"
)

// TestSplitsWithStatsReplicaMatchesPins: the compatibility split phase
// plans what Splits(file, nil) plans, and its Replica maps hold exactly
// the pinned blocks' Pins, under every split policy.
func TestSplitsWithStatsReplicaMatchesPins(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 6000, workload.UserVisitsOptions{})
	indexed := workload.BobQueries()[0].Query
	for _, tc := range []struct {
		name string
		in   InputFormat
	}{
		{"per-block index", InputFormat{Query: indexed}},
		{"hail splitting", InputFormat{Query: indexed, Splitting: true}},
		{"scan", InputFormat{Query: scanOnlyQuery()}},
		{"packed scan", InputFormat{Query: scanOnlyQuery(), PackScans: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.in
			f.Cluster = cluster
			want, wantSt, err := f.Splits("/uv", nil)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := f.SplitsWithStats("/uv")
			if err != nil {
				t.Fatal(err)
			}
			if gotSt != wantSt || len(got) != len(want) {
				t.Fatalf("%d splits, stats %+v; Splits gives %d, %+v", len(got), gotSt, len(want), wantSt)
			}
			for i, s := range got {
				w := want[i]
				if !slices.Equal(s.Blocks, w.Blocks) || !slices.Equal(s.Locations, w.Locations) || !slices.Equal(s.Pins, w.Pins) {
					t.Fatalf("split %d: %+v, Splits gives %+v", i, s, w)
				}
				pins := make(map[hdfs.BlockID]hdfs.NodeID)
				for j, n := range w.Pins {
					if n != hdfs.NoReplica {
						pins[w.Blocks[j]] = n
					}
				}
				//lint:ignore SA1019 the compatibility form's own equivalence test
				replica := s.Replica
				for _, b := range s.Blocks {
					n, ok := replica[b]
					if wn, wok := pins[b]; ok != wok || n != wn {
						t.Errorf("split %d block %d: Replica has %d, %v; Pins %d, %v", i, b, n, ok, wn, wok)
					}
				}
				if w.Pins == nil && replica != nil {
					t.Errorf("unpinned split %d has Replica %v", i, replica)
				}
			}
		})
	}
}
