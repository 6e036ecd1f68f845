package mapred

import (
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
// KV of the job that filled it. Once Run has returned and its Output is
// dropped, no block's text may stay reachable — not through the buffers
// the pool holds, and not when the job failed with a block's output half
// emitted. Run's clear is what lets go: without it the pooled buffers keep
// every text alive.
func TestRecycledChunkPinsNothing(t *testing.T) {
	for _, failing := range []bool{false, true} {
		c, f := buildFake(t, 3, 4, 1)
		in := &freshTextInput{fakeInput: f}
		func() {
			blocksMapped := 0
			_, err := (&Engine{Cluster: c, Parallelism: 1}).Run(&Job{
				Name: "pins", File: "/fake", Input: in,
				MapBatch: func(b *Batch, emit Emit) {
					blocksMapped++
					for _, line := range b.Raw {
						emit(line, "")
						if failing && blocksMapped == 4 {
							panic("the last block fails half emitted")
						}
					}
				},
			})
			if (err != nil) != failing {
				t.Fatalf("failing=%v: Run: %v", failing, err)
			}
		}()
		var held []*[]KV // the pool's buffers, up to the first it makes anew
		for p := blockBufs.Get().(*[]KV); cap(*p) > 0; p = blockBufs.Get().(*[]KV) {
			held = append(held, p)
		}
		runtime.GC()
		pinned := 0
		for _, w := range in.texts {
			if w.Value() != nil {
				pinned++
			}
		}
		if len(in.texts) != 4 || pinned > 0 {
			t.Errorf("failing=%v: %d of %d blocks' text still reachable after Run returned, %d buffers pooled", failing, pinned, len(in.texts), len(held))
		}
		runtime.KeepAlive(held)
	}
}
