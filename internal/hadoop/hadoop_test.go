package hadoop

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
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

// emitLines is the identity map over raw text: each line as a key.
func emitLines(b *mapred.Batch, out mapred.Emitter) {
	for _, line := range b.Raw {
		out.Emit(line, "")
	}
}

func TestFullScanJobSeesEveryLine(t *testing.T) {
	data := lines(2000)
	c, sum := upload(t, 4, 8192, data)
	e := &mapred.Engine{Cluster: c}
	job := &mapred.Job{
		Name:     "scan",
		File:     "/data",
		Input:    &TextInputFormat{Cluster: c},
		MapBatch: emitLines,
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
	splits, _, err := f.Splits("/data", nil)
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
	if _, _, err := f.Splits("/missing", nil); err == nil {
		t.Error("Splits on missing file succeeded")
	}
}

func TestScanSurvivesNodeFailure(t *testing.T) {
	data := lines(1500)
	c, _ := upload(t, 5, 4096, data)
	c.KillNode(2)
	e := &mapred.Engine{Cluster: c}
	res, err := e.Run(&mapred.Job{
		Name:     "scan-fo",
		File:     "/data",
		Input:    &TextInputFormat{Cluster: c},
		MapBatch: emitLines,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(data) {
		t.Errorf("scan after failure saw %d lines, want %d", len(res.Output), len(data))
	}
}

// TestMapThroughTextInputFormat runs the map derived from an annotation
// over lines stored as text: the lines on which a hand-written text map
// once disagreed with HAIL's parser (an impossible date, a NUL byte, a
// duration that is not a number) select nothing, the adRevenue ranges of
// Bob-Q4 and Bob-Q5 keep their inclusive ends, and a trailing String
// attribute keeps the separators it holds.
func TestMapThroughTextInputFormat(t *testing.T) {
	uv := func(ip, date, rev, word, duration string) string {
		return ip + ",http://x/," + date + "," + rev + ",agent,DEU,de-DE," + word + "," + duration
	}
	bob := workload.BobQueries()
	notes := schema.MustNew(schema.Field{Name: "n", Type: schema.Int32}, schema.Field{Name: "note", Type: schema.String})
	late, err := query.ParseAnnotation(notes, `@HailQuery(filter="@1 between(5,9)", projection={@2,@1})`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		s     *schema.Schema
		q     *query.Query
		lines []string
		want  []string
	}{
		{"Bob-Q1", workload.UserVisitsSchema(), bob[0].Query, []string{
			uv("1.2.3.4", "1999-02-30", "5.5", "word", "42"),
			uv("1.2.3.5", "1999-06-15", "5.5", "wo\x00rd", "42"),
			uv("1.2.3.6", "1999-06-15", "5.5", "word", "42"),
		}, []string{"1.2.3.6"}},
		{"Bob-Q2", workload.UserVisitsSchema(), bob[1].Query, []string{
			uv(workload.NeedleIP, "1992-12-22", "5.5", "word", "abc"),
			uv(workload.NeedleIP, "1992-12-22", "5.50", "word", "07"),
		}, []string{"word,7,5.5"}},
		{"Bob-Q4", workload.UserVisitsSchema(), bob[3].Query, []string{
			uv("1.2.3.4", "1999-06-15", "0.9", "a", "1"),
			uv("1.2.3.4", "1999-06-15", "1", "b", "2"),
			uv("1.2.3.4", "1999-06-15", "5.5", "c", "3"),
			uv("1.2.3.4", "1999-06-15", "10", "d", "4"),
			uv("1.2.3.4", "1999-06-15", "10.1", "e", "5"),
		}, []string{"b,2,1", "c,3,5.5", "d,4,10"}},
		{"Bob-Q5", workload.UserVisitsSchema(), bob[4].Query, []string{
			uv("1.2.3.4", "1999-06-15", "0.99", "a", "1"),
			uv("1.2.3.4", "1999-06-15", "1", "b", "2"),
			uv("1.2.3.4", "1999-06-15", "100", "c", "3"),
			uv("1.2.3.4", "1999-06-15", "100.1", "d", "4"),
		}, []string{"b,2,1", "c,3,100"}},
		{"trailing string", notes, late, []string{"7,late, but fine", "12,x", "5"}, []string{"late, but fine,7"}},
	} {
		c, _ := upload(t, 3, 64, tc.lines)
		res, err := (&mapred.Engine{Cluster: c}).Run(&mapred.Job{
			Name: tc.name, File: "/data",
			Input:    &TextInputFormat{Cluster: c},
			MapBatch: Map(tc.s, tc.q),
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, kv := range res.Output {
			got = append(got, kv.Key)
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}
