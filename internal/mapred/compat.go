package mapred

import (
	"context"

	"repro/internal/schema"
)

// This file is the compatibility surface the benchmark module (bench/)
// compiles against. Production maps batches and streams chunks; nothing
// outside bench/ and this package's own tests uses what is here.

// Run executes the job as Stream does, uncancellable, and copies every
// block's chunk into one exactly-sized JobResult.Output. It is the form
// the benchmark measures, and tests compare whole answers with; a
// consumer that reads the rows once takes them from Stream, which copies
// nothing.
func (e *Engine) Run(job *Job) (*JobResult, error) {
	return e.run(context.Background(), job, assemble)
}

// assemble copies the chunks into res.Output: the one place Run copies KV
// headers.
func assemble(res *JobResult, chunks [][]KV) {
	res.Output = make([]KV, 0, res.Rows)
	for _, c := range chunks {
		res.Output = append(res.Output, c...)
	}
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
