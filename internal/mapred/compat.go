package mapred

import (
	"context"
	"iter"

	"repro/internal/schema"
)

// This file is the compatibility surface the benchmark module (bench/)
// compiles against. Production maps batches and streams chunks; nothing
// outside bench/ and this package's own tests uses what is here.

// Run executes the job as Stream does, uncancellable, and writes every
// block's rows into one exactly-sized JobResult.Output. It is the form
// the benchmark measures, and tests compare whole answers with; a
// consumer that reads the rows once takes them from Stream, which writes
// no header per row.
func (e *Engine) Run(job *Job) (*JobResult, error) {
	return e.run(context.Background(), job, assemble)
}

// assemble writes the chunks' rows into res.Output: the one place a KV
// header is written, once per row, from text and ends.
func assemble(res *JobResult, chunks []Chunk) {
	res.Output = make([]KV, res.Rows)
	i := 0
	for _, c := range chunks {
		for _, s := range c.segs {
			from := int32(0)
			if s.pairs {
				for k := 0; k+1 < len(s.ends); k += 2 {
					res.Output[i] = KV{s.text[from:s.ends[k]], s.text[s.ends[k]:s.ends[k+1]]}
					from = s.ends[k+1]
					i++
				}
				continue
			}
			for _, to := range s.ends {
				res.Output[i].Key = s.text[from:to]
				from = to
				i++
			}
		}
	}
}

// All yields Output's rows, key and value, in order: Run's answer, row
// by row. A result Stream returned has no Output and yields nothing.
func (r *JobResult) All() iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		for _, kv := range r.Output {
			if !yield(kv.Key, kv.Value) {
				return
			}
		}
	}
}

// ChunkOf returns a chunk holding kvs' pairs in order, copied into one
// text.
func ChunkOf(kvs []KV) Chunk {
	var b blockBuf
	for _, kv := range kvs {
		b.Emit(kv.Key, kv.Value)
	}
	return b.chunk()
}

// Record is one input record, as Batch.Each materializes it.
//
// Deprecated: bench/ only.
type Record struct {
	// Row holds the batch's projected attributes, in projection order. It
	// is Each's scratch row, valid only during the call.
	Row schema.Row
	// Raw is the unparsed text line, set for raw lines and bad records.
	Raw string
	// Bad flags records that did not match the schema (§4.3).
	Bad bool
}

// MapFunc is a map function over one record.
//
// Deprecated: bench/ only.
type MapFunc func(r Record, emit Emit)

// Each materializes the batch record by record, in order — rows, then raw
// lines (Record.Raw), then bad records (Record.Bad). The Record's Row is a
// scratch buffer reused across calls (Hadoop's object reuse contract): it
// is valid only for the duration of fn and must be copied to be retained.
// Boxing costs one allocation per string value (schema.Vector.Value); a
// map function that wants the rows' text uses Lines.
//
// Deprecated: bench/ only.
func (b *Batch) Each(fn func(Record)) {
	if b.Rows > 0 {
		if cap(b.scratch) < len(b.Cols) {
			b.scratch = make(schema.Row, len(b.Cols))
		}
		row := b.scratch[:len(b.Cols)]
		for i := 0; i < b.Rows; i++ {
			for c, vec := range b.Cols {
				row[c] = vec.Value(i)
			}
			fn(Record{Row: row})
		}
	}
	for _, line := range b.Raw {
		fn(Record{Raw: line})
	}
	for _, line := range b.Bad {
		fn(Record{Raw: line, Bad: true})
	}
}
