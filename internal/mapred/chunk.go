package mapred

import (
	"iter"
	"math"
	"slices"
	"sync"
)

// Chunk is one block's map output: its rows in emit order, held as a few
// text segments and their int32 row ends, with no header per row. A
// segment is either a batch's Batch.Lines text handed over whole — each
// row a key with an empty value — or the key/value pairs a map function
// emitted between two handovers, copied into one string with a key end
// and a value end per pair. Every key and value a chunk yields is a
// substring of its text, so a consumer that keeps one keeps the whole
// segment's text reachable.
//
// A chunk is read-only. A computed block's chunk keeps its segment
// headers and row ends in a pooled buffer the engine reuses once the job
// returns; Clone is the copy that outlives it. The texts themselves are
// strings, so nothing the engine reuses is ever reachable from a key.
type Chunk struct {
	segs []segment
}

// segment is one run of rows over one text; row ends are offsets into
// text, the first row starting at 0. A lines segment has one end per row;
// a pairs segment two, the key's and the value's.
type segment struct {
	text  string
	ends  []int32
	pairs bool
}

// segmentOverhead is what Size charges per segment: its header.
const segmentOverhead = 48

// Len returns the number of rows in the chunk.
func (c Chunk) Len() int {
	n := 0
	for i := range c.segs {
		n += c.segs[i].rows()
	}
	return n
}

func (s *segment) rows() int {
	if s.pairs {
		return len(s.ends) / 2
	}
	return len(s.ends)
}

// All yields the chunk's rows in order, key and value.
func (c Chunk) All() iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		for i := range c.segs {
			s := &c.segs[i]
			from := int32(0)
			if s.pairs {
				for k := 0; k+1 < len(s.ends); k += 2 {
					if !yield(s.text[from:s.ends[k]], s.text[s.ends[k]:s.ends[k+1]]) {
						return
					}
					from = s.ends[k+1]
				}
				continue
			}
			for _, to := range s.ends {
				if !yield(s.text[from:to], "") {
					return
				}
				from = to
			}
		}
	}
}

// outputBytes is the chunk's share of TaskStats.OutputBytes: every key and
// value byte plus two per row, summed a segment at a time.
func (c Chunk) outputBytes() int64 {
	var n int64
	for i := range c.segs {
		s := &c.segs[i]
		if len(s.ends) > 0 {
			n += int64(s.ends[len(s.ends)-1]) + 2*int64(s.rows())
		}
	}
	return n
}

// Size is the bytes the chunk holds: its texts, four per row end and a
// header per segment. It is what a result cache charges for keeping it.
func (c Chunk) Size() int64 {
	n := int64(segmentOverhead * len(c.segs))
	for i := range c.segs {
		n += int64(len(c.segs[i].text) + 4*len(c.segs[i].ends))
	}
	return n
}

// Clone returns a chunk that yields the same rows and shares none of c's
// segment headers or row ends: two allocations, whatever the row count.
// The texts are shared, as strings are. A cache keeps a clone, never a
// computed chunk itself.
func (c Chunk) Clone() Chunk {
	if len(c.segs) == 0 {
		return Chunk{}
	}
	n := 0
	for i := range c.segs {
		n += len(c.segs[i].ends)
	}
	ends := make([]int32, 0, n)
	segs := slices.Clone(c.segs)
	for i := range segs {
		from := len(ends)
		ends = append(ends, segs[i].ends...)
		segs[i].ends = ends[from:len(ends):len(ends)]
	}
	return Chunk{segs: segs}
}

// Emitter is a map function's output handle. A map function hands a
// batch's formatted rows over whole with EmitLines, and emits key/value
// pairs with Emit; the block's output holds both in call order. A map
// function that wraps another keeps its wrapper in the way by passing it
// as the handle (Emit adapts a function).
type Emitter interface {
	// Emit appends one key/value pair.
	Emit(key, value string)
	// EmitLines appends the rows of text as Batch.Lines returns them —
	// row k is text[ends[k-1]:ends[k]], from 0 for the first — each a key
	// with an empty value. ends is read during the call only.
	EmitLines(text string, ends []int32)
}

// Emit is a function as an Emitter: EmitLines calls it once per row.
type Emit func(key, value string)

// Emit calls f.
func (f Emit) Emit(key, value string) { f(key, value) }

// EmitLines calls f with each row and an empty value, in order.
func (f Emit) EmitLines(text string, ends []int32) {
	from := int32(0)
	for _, to := range ends {
		f(text[from:to], "")
		from = to
	}
}

// blockBuf is the pooled buffer a computed block's chunk is built in: the
// chunk's segment headers, every segment's row ends back to back, and the
// bytes of the pairs emitted since the last segment began (slab, whose
// ends are ends[pending:]). The engine's worker is its Emitter while it
// maps the block.
type blockBuf struct {
	segs    []segment
	ends    []int32
	slab    []byte
	pending int
}

// blockBufs recycles block buffers, one per computed block: a job's
// buffers are all live until it returns, so one buffer per worker would
// not be enough. A buffer in the pool holds no segment, so it pins no
// job's text; its ends and slab hold no pointers.
var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// reset empties the buffer, dropping every segment's text.
func (b *blockBuf) reset() {
	clear(b.segs)
	b.segs, b.ends, b.slab, b.pending = b.segs[:0], b.ends[:0], b.slab[:0], 0
}

// Emit copies the pair into the slab and records its two ends.
func (b *blockBuf) Emit(key, value string) {
	b.slab = append(b.slab, key...)
	k := len(b.slab)
	b.slab = append(b.slab, value...)
	if len(b.slab) > math.MaxInt32 {
		panic("mapred: a block's emitted pairs exceed the row-end directory's 2 GiB")
	}
	b.ends = growDoubling(b.ends, 2)
	b.ends = append(b.ends, int32(k), int32(len(b.slab)))
}

// EmitLines records text as a segment of its own, after the pairs
// emitted before it; only the ends are copied.
func (b *blockBuf) EmitLines(text string, ends []int32) {
	if len(ends) == 0 {
		return
	}
	b.flush()
	b.ends = growDoubling(b.ends, len(ends))
	b.ends = append(b.ends, ends...)
	b.segs = append(b.segs, segment{text: text, ends: b.ends[b.pending:len(b.ends):len(b.ends)]})
	b.pending = len(b.ends)
}

// flush turns the pending pairs into a segment: the slab becomes one
// string.
func (b *blockBuf) flush() {
	if b.pending == len(b.ends) {
		return
	}
	b.segs = append(b.segs, segment{text: string(b.slab), ends: b.ends[b.pending:len(b.ends):len(b.ends)], pairs: true})
	b.slab, b.pending = b.slab[:0], len(b.ends)
}

// chunk flushes the pending pairs and returns the block's output, a
// cap-clamped window of the buffer.
func (b *blockBuf) chunk() Chunk {
	b.flush()
	return Chunk{segs: b.segs[:len(b.segs):len(b.segs)]}
}

// growDoubling makes room for n more elements, doubling a full slice:
// append's own growth of a large slice, a quarter at a time, would
// allocate five times a block's final output.
func growDoubling[S ~[]E, E any](s S, n int) S {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(len(s), n, 64))
	}
	return s
}
