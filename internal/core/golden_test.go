package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/schema"
	"repro/internal/workload"
)

// TestUploadReplicasGolden freezes the stored layout: the SHA-256 over
// every replica an upload stores — blocks in UploadSummary.BlockIDs order,
// holders in GetHosts order — must equal the hash recorded at commit
// 0c4067b, before pax.Block became byte arenas. Whatever changes in how a
// replica is built, the bytes a reader finds may not.
func TestUploadReplicasGolden(t *testing.T) {
	uvOpts := workload.UserVisitsOptions{NeedleEvery: 5000, BadEvery: 1009}
	uv := func(seed int64) []string { return workload.GenerateUserVisits(20000, seed, uvOpts) }
	syn := func(seed int64) []string { return workload.GenerateSynthetic(20000, seed) }
	bob := []int{workload.UVSourceIP, workload.UVVisitDate, workload.UVAdRevenue}
	mixed := []int{workload.UVDuration, -1, workload.UVSearchWord}
	for _, tc := range []struct {
		name   string
		sch    *schema.Schema
		lines  func(seed int64) []string
		sort   []int
		hashes [2]string // seed 1, seed 2
	}{
		{"uservisits/bob", workload.UserVisitsSchema(), uv, bob, [2]string{
			"5bbbce8bc696603dfe2f539b5906bcfa36e21792a020d8722ae6c56d074dbad9",
			"8dbb127633dccb11e8cba4091875ca0470057e7c0f2cb70f9d1de43a53c889ab"}},
		{"uservisits/int32-unsorted-string", workload.UserVisitsSchema(), uv, mixed, [2]string{
			"8bbcaa769c20613984f626e7829f3f2926fa8de06532ba5b0d274fc045d8f014",
			"1dd5526e59a113af9bb2ce83eaa706320fde482247c9280f77435e199b997e2a"}},
		{"synthetic/0-1-2", workload.SyntheticSchema(), syn, []int{0, 1, 2}, [2]string{
			"116e199d37c0cf51545656992a01aaaa35741d75b8cb2134f7986542b9e8936b",
			"1fbef7878e18a1209f0a657fb8284c537732c76b7f5eeaa0722d3218e0d55628"}},
	} {
		for i, want := range tc.hashes {
			cluster, err := hdfs.NewCluster(4)
			if err != nil {
				t.Fatal(err)
			}
			client := &Client{Cluster: cluster, Config: LayoutConfig{Schema: tc.sch, SortColumns: tc.sort, BlockSize: 256 << 10}}
			sum, err := client.Upload("/golden", tc.lines(int64(i+1)))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, i+1, err)
			}
			h := sha256.New()
			for _, b := range sum.BlockIDs {
				for _, node := range cluster.NameNode().GetHosts(b) {
					data, err := cluster.ReadBlockFrom(node, b)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(data)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s seed %d: %d blocks, %d stored bytes hash to %s, want %s",
					tc.name, i+1, sum.Blocks, sum.StoredBytes, got, want)
			}
		}
	}
}
