package mapred

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/hdfs"
)

// freshTextInput is a fakeInput whose reader makes every block's text
// afresh, one string per block read, and delivers its lines as substrings
// of it, the way Batch.Lines does; texts holds a weak pointer to each.
type freshTextInput struct {
	*fakeInput
	mu    sync.Mutex
	texts []weak.Pointer[byte]
}

const freshLines, freshLineLen = 8, 64

func (f *freshTextInput) Open(split Split, node hdfs.NodeID) (BatchReader, error) {
	return freshTextReader{f, split}, nil
}

type freshTextReader struct {
	input *freshTextInput
	split Split
}

func (r freshTextReader) ReadBatches(fn func(*Batch)) (TaskStats, error) {
	var stats TaskStats
	for range r.split.Blocks {
		text := strings.Repeat("x", freshLines*freshLineLen)
		r.input.mu.Lock()
		r.input.texts = append(r.input.texts, weak.Make(unsafe.StringData(text)))
		r.input.mu.Unlock()
		raw := make([]string, freshLines)
		for i := range raw {
			raw[i] = text[i*freshLineLen : (i+1)*freshLineLen]
		}
		stats.Blocks++
		fn(&Batch{Raw: raw})
	}
	return stats, nil
}

// TestRecycledChunkPinsNothing: a block buffer back in the pool holds no
// segment of the job that filled it. Once Run has returned and its Output
// is dropped, no block's text may stay reachable — not the texts a map
// function handed over (EmitLines), not the ones its pairs were copied
// into (Emit), not through the buffers the pool holds, and not when the
// job failed with a block's output half emitted. The buffers' reset is
// what lets go: without it the pooled segment headers keep every text
// alive.
func TestRecycledChunkPinsNothing(t *testing.T) {
	for _, failing := range []bool{false, true} {
		c, f := buildFake(t, 3, 4, 1)
		in := &freshTextInput{fakeInput: f}
		func() {
			blocksMapped := 0
			_, err := (&Engine{Cluster: c, Parallelism: 1}).Stream(context.Background(), &Job{
				Name: "pins", File: "/fake", Input: in,
				MapBatch: func(b *Batch, out Emitter) {
					blocksMapped++
					if blocksMapped%2 == 0 {
						for _, line := range b.Raw {
							out.Emit(line, "")
						}
						return
					}
					// The lines are substrings of one fresh text: hand it
					// over whole.
					text := strings.Join(b.Raw, "")
					ends := make([]int32, len(b.Raw))
					for i := range ends {
						ends[i] = int32((i + 1) * freshLineLen)
					}
					in.mu.Lock()
					in.texts = append(in.texts, weak.Make(unsafe.StringData(text)))
					in.mu.Unlock()
					out.EmitLines(text, ends[:len(ends)/2])
					if failing && blocksMapped == 3 {
						panic("the third block fails half emitted")
					}
					out.EmitLines(text, ends)
				},
			}, func(chunk Chunk) bool {
				for _, s := range chunk.segs {
					in.mu.Lock()
					in.texts = append(in.texts, weak.Make(unsafe.StringData(s.text)))
					in.mu.Unlock()
				}
				return true
			})
			if (err != nil) != failing {
				t.Fatalf("failing=%v: Stream: %v", failing, err)
			}
		}()
		var held []*blockBuf // the pool's buffers, up to the first it makes anew
		for b := blockBufs.Get().(*blockBuf); cap(b.segs) > 0; b = blockBufs.Get().(*blockBuf) {
			held = append(held, b)
		}
		runtime.GC()
		pinned := 0
		for _, w := range in.texts {
			if w.Value() != nil {
				pinned++
			}
		}
		// The reader's text of each block read (4, or 3 when the third
		// fails), the two joined texts, and unless the job failed the six
		// segments its chunks yielded (two per handing-over block, one per
		// emitting block).
		want := 4 + 2 + 6
		if failing {
			want = 3 + 2
		}
		if len(in.texts) != want || pinned > 0 {
			t.Errorf("failing=%v: %d of %d texts still reachable after Stream returned (want %d texts), %d buffers pooled", failing, pinned, len(in.texts), want, len(held))
		}
		runtime.KeepAlive(held)
	}
}
