package core

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestOutputHandleKeepsWrappersAndOrder: two map functions over every row
// of an upload holding one NUL line (a bad record) write through the
// engine's output handle. "wrap" wraps it as
// TestUploadStoresNULLineAsBadRecord's map does — the passthrough's rows
// re-keyed "good", the bad record keyed "bad" — so the handover must go
// through the wrapper. "mix" hands each batch's lines over whole, then
// emits a pair counting them, then the batch's bad records. Each comes
// back byte-identical and in order through Run, Stream, and a fully cached
// Run and Stream.
func TestOutputHandleKeepsWrappersAndOrder(t *testing.T) {
	lines := workload.GenerateUserVisits(3000, 42, workload.UserVisitsOptions{})
	lines[2499] = strings.Replace(lines[2499], "http://", "http://\x00", 1)
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Cluster: cluster, Config: LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVDestURL, -1, workload.UVAdRevenue},
		BlockSize:   64 << 10,
	}}
	if _, err := client.Upload("/uv", lines); err != nil {
		t.Fatal(err)
	}
	maps := []struct {
		name string
		fn   mapred.MapBatchFunc
	}{
		{"wrap", func(b *mapred.Batch, out mapred.Emitter) {
			workload.PassthroughMapBatch(b, mapred.Emit(func(row, _ string) { out.Emit("good", row) }))
			for _, line := range b.Bad {
				out.Emit("bad", line)
			}
		}},
		{"mix", func(b *mapred.Batch, out mapred.Emitter) {
			text, ends := b.Lines(',')
			out.EmitLines(text, ends)
			out.Emit("batch", strconv.Itoa(len(ends)))
			for _, line := range b.Bad {
				out.Emit("bad", line)
			}
		}},
	}
	for _, m := range maps {
		job := &mapred.Job{
			Name: m.name, File: "/uv", MapBatch: m.fn, MapSig: m.name,
			Input: &InputFormat{Cluster: cluster, Query: &query.Query{}},
		}
		ref, err := (&mapred.Engine{Cluster: cluster}).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		checkHandleOutput(t, m.name, ref, lines)

		e := &mapred.Engine{Cluster: cluster, Cache: qcache.New(0)}
		stream := func(phase string) {
			var got []mapred.KV
			res, err := e.Stream(context.Background(), job, func(c mapred.Chunk) bool {
				for k, v := range c.All() {
					got = append(got, mapred.KV{Key: k, Value: v})
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, ref.Output) || res.Len() != len(got) {
				t.Errorf("%s: %s Stream delivered %d rows (Len %d), not Run's %d in order", m.name, phase, len(got), res.Len(), len(ref.Output))
			}
		}
		stream("cold")
		hot, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if st := hot.TotalStats(); st.BlocksFromCache != st.Blocks || !slices.Equal(hot.Output, ref.Output) {
			t.Errorf("%s: hot Run served %d of %d blocks from the cache; output equal to the uncached Run's: %v",
				m.name, st.BlocksFromCache, st.Blocks, slices.Equal(hot.Output, ref.Output))
		}
		stream("hot")
	}
}

// checkHandleOutput holds one map's Run to the uploaded lines: every good
// line once and the NUL line once as a bad record; for "mix", every count
// pair equal to the lines handed over since the one before it.
func checkHandleOutput(t *testing.T, name string, res *mapred.JobResult, lines []string) {
	t.Helper()
	want := make(map[string]int)
	for i, line := range lines {
		kind := "good"
		if i == 2499 {
			kind = "bad"
		}
		want[kind+" "+line]++
	}
	run := 0
	for key, value := range res.All() {
		switch {
		case name == "mix" && key == "batch":
			if n, _ := strconv.Atoi(value); n != run {
				t.Fatalf("mix: a batch counted %s lines, %d came before it", value, run)
			}
			run = 0
		case name == "mix" && key != "bad":
			run++
			want["good "+key]--
		default:
			want[key+" "+value]--
		}
	}
	for row, n := range want {
		if n != 0 {
			t.Fatalf("%s: %q came back %d times too few", name, row, n)
		}
	}
}
