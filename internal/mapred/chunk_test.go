package mapred

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hdfs"
)

// batchInput serves fixed batches, one split and one batch list per
// block; a cacheable QuerySigner.
type batchInput struct {
	splits  []Split
	batches map[hdfs.BlockID][]*Batch
}

func (in *batchInput) Splits(string, func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]Split, TaskStats, error) {
	return in.splits, TaskStats{}, nil
}

func (in *batchInput) Open(split Split, _ hdfs.NodeID) (BatchReader, error) {
	return batchReader{in, split}, nil
}

func (in *batchInput) QuerySignature() (string, bool) { return "batches", true }

type batchReader struct {
	in    *batchInput
	split Split
}

func (r batchReader) ReadBatches(fn func(*Batch)) (TaskStats, error) {
	var stats TaskStats
	for _, b := range r.split.Blocks {
		stats.Blocks++
		for _, batch := range r.in.batches[b] {
			fn(batch)
		}
	}
	return stats, nil
}

// newBatchInput is blocks blocks of two random batches each (randomBatch:
// every column type, packed strings), the second one carrying a raw line
// and a bad record as well.
func newBatchInput(t *testing.T, blocks int) (*hdfs.Cluster, *batchInput) {
	t.Helper()
	c, err := hdfs.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	in := &batchInput{batches: make(map[hdfs.BlockID][]*Batch)}
	for b := range blocks {
		id := hdfs.BlockID(b)
		first, second := randomBatch(rng, 3+b), randomBatch(rng, 5)
		first.Rows, second.Rows = 3+b, 5
		second.Raw, second.Bad = []string{"raw line"}, []string{"bad,record"}
		in.batches[id] = []*Batch{first, second}
		in.splits = append(in.splits, Split{Blocks: []hdfs.BlockID{id}, Locations: []hdfs.NodeID{hdfs.NodeID(b % 2)}})
	}
	return c, in
}

// linesOf is what a passthrough emits for the input: every batch's rows
// as Lines(',') formats them, in block order, and no raw line or bad
// record.
func linesOf(in *batchInput) []KV {
	var want []KV
	for b := range len(in.splits) {
		for _, batch := range in.batches[hdfs.BlockID(b)] {
			text, ends := batch.Lines(',')
			Emit(func(k, v string) { want = append(want, KV{k, v}) }).EmitLines(text, ends)
		}
	}
	return want
}

// TestEngineWithoutMapFuncIsPassthrough: a job with no MapBatch emits each
// batch's rows as Batch.Lines(',') formats them, in order, drops raw
// lines and bad records, never calls a Map set beside it, and is cached
// under PassthroughSig whatever MapSig says. A map function that hands
// Lines over through its Emitter gives the same rows.
func TestEngineWithoutMapFuncIsPassthrough(t *testing.T) {
	c, in := newBatchInput(t, 4)
	want := linesOf(in)
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache}
	for _, job := range []*Job{
		{Name: "passthrough", Input: in},
		{Name: "row form only", Input: in, MapSig: "ignored", Map: func(Record, Emit) { t.Error("the engine called Map") }},
		{Name: "handed over", Input: in, MapBatch: func(b *Batch, out Emitter) { out.EmitLines(b.Lines(',')) }},
	} {
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Output, want) || res.Len() != len(want) {
			t.Errorf("%s: %d rows (Len %d), want the %d formatted rows in block order", job.Name, len(res.Output), res.Len(), len(want))
		}
	}
	if cache.lastKey.MapSig != PassthroughSig || cache.hits != 4 {
		t.Errorf("passthrough jobs cached under %q with %d hits; want %q and the second job hitting all 4 blocks", cache.lastKey.MapSig, cache.hits, PassthroughSig)
	}
}

// TestChunkHoldsTextAndEnds: a block buffer fed handed-over lines and
// emitted pairs, interleaved, yields them back in call order; Len and
// OutputBytes agree with the rows; Clone yields the same rows and shares
// no ends with the buffer, which is reset and refilled after it.
func TestChunkHoldsTextAndEnds(t *testing.T) {
	var b blockBuf
	var want []KV
	lines := func(text string, ends ...int32) {
		b.EmitLines(text, ends)
		Emit(func(k, v string) { want = append(want, KV{k, v}) }).EmitLines(text, ends)
	}
	pair := func(k, v string) {
		b.Emit(k, v)
		want = append(want, KV{k, v})
	}
	pair("k0", "v0")
	pair("", "")
	lines("abcdef", 1, 3, 6)
	lines("", 0, 0)
	pair("key", "value")
	lines("xyz")
	lines("xy", 2)
	pair("last", "")
	c := b.chunk()

	got := slices.Collect(func(yield func(KV) bool) {
		for k, v := range c.All() {
			if !yield(KV{k, v}) {
				return
			}
		}
	})
	if !slices.Equal(got, want) || c.Len() != len(want) {
		t.Fatalf("chunk rows %q (Len %d), want %q", got, c.Len(), want)
	}
	var bytes int64
	for _, kv := range want {
		bytes += int64(len(kv.Key) + len(kv.Value) + 2)
	}
	if c.outputBytes() != bytes {
		t.Errorf("outputBytes %d, want %d", c.outputBytes(), bytes)
	}
	if len(c.segs) != 6 {
		t.Errorf("%d segments, want 6: pairs, lines, lines, pairs, lines, pairs", len(c.segs))
	}

	clone, size := c.Clone(), c.Size()
	b.reset()
	b.Emit("overwritten", "ends")
	b.EmitLines("zzzzzzzzzz", []int32{9, 10, 10, 10})
	var again []KV
	for k, v := range clone.All() {
		again = append(again, KV{k, v})
	}
	if !slices.Equal(again, want) || clone.Size() != size {
		t.Errorf("the clone changed when its buffer was refilled: %q", again)
	}
	if (Chunk{}).Len() != 0 || (Chunk{}).Clone().segs != nil {
		t.Error("an empty chunk is not empty")
	}
}
