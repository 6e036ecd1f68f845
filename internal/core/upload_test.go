package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/pax"
	"repro/internal/workload"
)

// TestUploadMatchesSerialPipeline: the client parses block k+1 while block
// k's replicas are built, yet the upload must leave what a serial pipeline
// leaves — the same summary, the file's blocks in file order with ascending
// IDs, and block k's replicas on block k's holders. The expectation is
// built here one block and one replica after another, from the same
// cut-at-BlockSize rule. Run it under -race: the summary is filled from two
// goroutines.
func TestUploadMatchesSerialPipeline(t *testing.T) {
	lines := workload.GenerateUserVisits(6000, 3, workload.UserVisitsOptions{BadEvery: 997})
	cfg := LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVVisitDate, -1, workload.UVAdRevenue},
		BlockSize:   64 << 10,
	}

	var want UploadSummary
	var wantReplicas [][][]byte // per block, per pipeline position
	var blockLines []string
	blockText := 0
	cut := func() {
		if len(blockLines) == 0 {
			return
		}
		paxData := userVisitsPax(t, blockLines)
		blk, err := pax.Unmarshal(paxData)
		if err != nil {
			t.Fatal(err)
		}
		want.Blocks++
		want.Rows += int64(blk.NumRows())
		want.BadRecords += int64(blk.NumBad())
		want.PaxBytes += int64(len(paxData))
		var replicas [][]byte
		for _, col := range cfg.SortColumns {
			replica, info, err := buildReplica(paxData, col)
			if err != nil {
				t.Fatal(err)
			}
			want.StoredBytes += int64(len(replica))
			if col >= 0 {
				want.SortedBytes += int64(len(paxData))
				want.IndexBytes += int64(info.IndexSize)
			}
			replicas = append(replicas, replica)
		}
		wantReplicas = append(wantReplicas, replicas)
		blockLines, blockText = blockLines[:0], 0
	}
	for _, line := range lines {
		want.TextBytes += int64(len(line) + 1)
		blockLines = append(blockLines, line)
		if blockText += len(line) + 1; blockText >= cfg.BlockSize {
			cut()
		}
	}
	cut()
	if want.Blocks < 4 {
		t.Fatalf("fixture cuts %d blocks; the test needs several in flight one after another", want.Blocks)
	}

	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := (&Client{Cluster: cluster, Config: cfg}).Upload("/uv", lines)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(sum.BlockIDs) || len(slices.Compact(slices.Clone(sum.BlockIDs))) != len(sum.BlockIDs) {
		t.Errorf("BlockIDs %v are not ascending", sum.BlockIDs)
	}
	fileBlocks, err := cluster.NameNode().FileBlocks("/uv")
	if err != nil || !slices.Equal(fileBlocks, sum.BlockIDs) {
		t.Errorf("namenode lists %v (%v) for the file, the summary %v", fileBlocks, err, sum.BlockIDs)
	}
	want.BlockIDs = sum.BlockIDs
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("summary\n%+v\nwant the serial pipeline's\n%+v", sum, want)
	}
	for k, b := range sum.BlockIDs {
		for pos, node := range cluster.NameNode().GetHosts(b) {
			got, err := cluster.ReadBlockFrom(node, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantReplicas[k][pos]) {
				t.Errorf("block %d (the file's #%d), position %d: stored replica differs from the serial build", b, k, pos)
			}
		}
	}
}

// TestUploadFailureWaitsForTheWriter: when the pipeline cannot be built —
// three replicas, one of three nodes dead — Upload returns the pipeline's
// error, and only after the block it had in flight has come back: no
// writer goroutine outlives it, and no block is registered for the file.
func TestUploadFailureWaitsForTheWriter(t *testing.T) {
	cluster, err := hdfs.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillNode(1); err != nil {
		t.Fatal(err)
	}
	client := &Client{Cluster: cluster, Config: LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
		BlockSize:   64 << 10,
	}}
	lines := workload.GenerateUserVisits(3000, 5, workload.UserVisitsOptions{})

	baseline := runtime.NumGoroutine()
	sum, err := client.Upload("/uv", lines)
	if err == nil || !strings.Contains(err.Error(), "need 3 alive datanodes") {
		t.Fatalf("Upload with one of three nodes dead: %v, want the pipeline's error", err)
	}
	if sum.Blocks != 0 || len(sum.BlockIDs) != 0 {
		t.Errorf("failed upload reports %d blocks %v", sum.Blocks, sum.BlockIDs)
	}
	if blocks, _ := cluster.NameNode().FileBlocks("/uv"); len(blocks) != 0 {
		t.Errorf("failed upload registered blocks %v", blocks)
	}
	// The writer has sent its error; it may not have left the scheduler's
	// books yet when Upload returns.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the upload: the writer leaked", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestConcurrentUploadsKeepTheirBuffers: uploads share pooled buffers —
// the client's block and serialization buffer, the pipeline's receive
// buffer, row directories and sort orders — so uploads running at once
// into one cluster must never see each other's: every file's replicas
// are the bytes a lone upload of the same lines stores. Run it under
// -race.
func TestConcurrentUploadsKeepTheirBuffers(t *testing.T) {
	cfg := bobLayout()
	cfg.BlockSize = 32 << 10
	const uploads = 4
	inputs := make([][]string, uploads)
	for i := range inputs {
		inputs[i] = workload.GenerateUserVisits(800+300*i, int64(10+i), workload.UserVisitsOptions{BadEvery: 97})
	}
	replicasOf := func(cluster *hdfs.Cluster, file string) [][]byte {
		blocks, err := cluster.NameNode().FileBlocks(file)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, b := range blocks {
			for _, node := range cluster.NameNode().GetHosts(b) {
				data, err := cluster.ReadBlockFrom(node, b)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, data)
			}
		}
		return out
	}
	want := make([][][]byte, uploads)
	for i, lines := range inputs {
		cluster, err := hdfs.NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Client{Cluster: cluster, Config: cfg}).Upload("/f", lines); err != nil {
			t.Fatal(err)
		}
		want[i] = replicasOf(cluster, "/f")
	}

	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, lines := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &Client{Cluster: cluster, Config: cfg}
			for round := range 2 {
				if _, err := client.Upload(fmt.Sprintf("/f%d.%d", i, round), lines); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for i := range inputs {
		for round := range 2 {
			got := replicasOf(cluster, fmt.Sprintf("/f%d.%d", i, round))
			if len(got) != len(want[i]) {
				t.Fatalf("upload %d, round %d: %d replicas, a lone upload stores %d", i, round, len(got), len(want[i]))
			}
			for k := range got {
				if !bytes.Equal(got[k], want[i][k]) {
					t.Fatalf("upload %d, round %d: replica %d differs from a lone upload's", i, round, k)
				}
			}
		}
	}
}
