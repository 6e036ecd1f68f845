package hadoop

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
)

func lines(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d,row-%d,value-%d", i, i, i*i)
	}
	return out
}

func upload(t *testing.T, nodes int, blockSize int, data []string) (*hdfs.Cluster, UploadSummary) {
	t.Helper()
	c, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	u := &Uploader{Cluster: c, BlockSize: blockSize, Replication: 3}
	sum, err := u.Upload("/data", data)
	if err != nil {
		t.Fatal(err)
	}
	return c, sum
}

func TestUploadBlocksAtLineBoundaries(t *testing.T) {
	data := lines(1000)
	c, sum := upload(t, 5, 4096, data)
	if sum.Blocks < 2 {
		t.Fatalf("expected multiple blocks, got %d", sum.Blocks)
	}
	var total int64
	for _, l := range data {
		total += int64(len(l) + 1)
	}
	if sum.TextBytes != total {
		t.Errorf("TextBytes = %d, want %d", sum.TextBytes, total)
	}
	if sum.StoredBytes != 3*total {
		t.Errorf("StoredBytes = %d, want %d (3 replicas)", sum.StoredBytes, 3*total)
	}
	// Every block must end exactly at a line boundary: reassembling all
	// blocks gives back the input.
	var rebuilt []string
	for _, id := range sum.BlockIDs {
		raw, _, err := c.ReadBlockAny(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if raw[len(raw)-1] != '\n' {
			t.Errorf("block %d does not end at a line boundary", id)
		}
		for _, l := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
			rebuilt = append(rebuilt, l)
		}
	}
	if len(rebuilt) != len(data) {
		t.Fatalf("rebuilt %d lines, want %d", len(rebuilt), len(data))
	}
	for i := range data {
		if rebuilt[i] != data[i] {
			t.Fatalf("line %d = %q, want %q", i, rebuilt[i], data[i])
		}
	}
}

func TestUploadValidation(t *testing.T) {
	c, _ := hdfs.NewCluster(3)
	if _, err := (&Uploader{Cluster: c, BlockSize: 0, Replication: 3}).Upload("/x", lines(1)); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := (&Uploader{Cluster: c, BlockSize: 100, Replication: 0}).Upload("/x", lines(1)); err == nil {
		t.Error("zero replication accepted")
	}
}

func TestFullScanJobSeesEveryLine(t *testing.T) {
	data := lines(2000)
	c, sum := upload(t, 4, 8192, data)
	e := &mapred.Engine{Cluster: c}
	job := &mapred.Job{
		Name:  "scan",
		File:  "/data",
		Input: &TextInputFormat{Cluster: c},
		Map: func(r mapred.Record, emit mapred.Emit) {
			emit(r.Raw, "")
		},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(data) {
		t.Fatalf("scan saw %d lines, want %d", len(res.Output), len(data))
	}
	seen := make(map[string]int)
	for _, kv := range res.Output {
		seen[kv.Key]++
	}
	for _, l := range data {
		if seen[l] != 1 {
			t.Fatalf("line %q seen %d times", l, seen[l])
		}
	}
	if len(res.Tasks) != sum.Blocks {
		t.Errorf("tasks = %d, want one per block (%d)", len(res.Tasks), sum.Blocks)
	}
	stats := res.TotalStats()
	if stats.FullScans != sum.Blocks || stats.IndexScans != 0 {
		t.Errorf("scans: %d full, %d index", stats.FullScans, stats.IndexScans)
	}
	if stats.BytesRead != sum.TextBytes {
		t.Errorf("BytesRead = %d, want %d (full scan reads everything)", stats.BytesRead, sum.TextBytes)
	}
	if stats.TextBytesParsed != sum.TextBytes {
		t.Errorf("TextBytesParsed = %d, want %d", stats.TextBytesParsed, sum.TextBytes)
	}
}

func TestSplitsOnePerBlockWithLocations(t *testing.T) {
	data := lines(500)
	c, sum := upload(t, 5, 4096, data)
	f := &TextInputFormat{Cluster: c}
	splits, _, err := f.SplitsWithStats("/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != sum.Blocks {
		t.Fatalf("splits = %d, want %d", len(splits), sum.Blocks)
	}
	for _, s := range splits {
		if len(s.Blocks) != 1 {
			t.Errorf("split has %d blocks, want 1", len(s.Blocks))
		}
		if len(s.Locations) != 3 {
			t.Errorf("split has %d locations, want 3 replicas", len(s.Locations))
		}
	}
	if _, _, err := f.SplitsWithStats("/missing"); err == nil {
		t.Error("SplitsWithStats on missing file succeeded")
	}
}

func TestScanSurvivesNodeFailure(t *testing.T) {
	data := lines(1500)
	c, _ := upload(t, 5, 4096, data)
	c.KillNode(2)
	e := &mapred.Engine{Cluster: c}
	res, err := e.Run(&mapred.Job{
		Name:  "scan-fo",
		File:  "/data",
		Input: &TextInputFormat{Cluster: c},
		Map:   func(r mapred.Record, emit mapred.Emit) { emit(r.Raw, "") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(data) {
		t.Errorf("scan after failure saw %d lines, want %d", len(res.Output), len(data))
	}
}
