package workload

import "repro/internal/mapred"

// PassthroughMapBatch is the map function a passthrough job has when it
// names one: records arrive filtered and projected, so it hands each
// batch's rows over as Batch.Lines(',') formats them (§4.1's two-line
// HAIL map function), and bad records are not emitted. Through the
// engine's handle that is the path a job with no map function takes: the
// batch's text and row ends become the block's output, and no row is
// touched. A wrapping handle sees every row.
func PassthroughMapBatch(b *mapred.Batch, out mapred.Emitter) {
	out.EmitLines(b.Lines(','))
}

// PassthroughMapSig is PassthroughMapBatch's identity for
// mapred.Job.MapSig: the one a job with no map function is cached under,
// so both forms' cached block results interchange.
const PassthroughMapSig = mapred.PassthroughSig

// PassthroughMap is PassthroughMapBatch's row form, over Batch.Each's
// records: it emits what PassthroughMapBatch emits, row for row.
//
// Deprecated: bench/ only.
func PassthroughMap(r mapred.Record, emit mapred.Emit) {
	if r.Bad {
		return
	}
	emit(r.Row.Line(','), "")
}
