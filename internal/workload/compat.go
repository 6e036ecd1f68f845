package workload

import "repro/internal/mapred"

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
