package query

import (
	"math"
	"slices"

	"repro/internal/schema"
)

// Selection is a selection vector: the row indexes (ascending, within one
// batch) that survive the predicates evaluated so far. Conjunctions are
// evaluated by running each predicate's kernel over the previous
// selection, so intersection falls out of the pipeline shape — no bitmaps
// to AND, no row ever re-tested against a predicate it already passed.
type Selection []int32

// MakeSelection fills sel with the identity selection 0..n-1 (every row
// selected), reusing sel's capacity. This is the starting selection for
// each batch.
func MakeSelection(sel Selection, n int) Selection {
	sel = slices.Grow(sel[:0], n)[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// FilterVector is the batch kernel form of Matches: it keeps the rows of
// sel whose value in vec satisfies the predicate, writing survivors into
// sel's prefix and returning the shortened selection. The bounds are
// unboxed once per batch, so the per-row work is a native comparison over
// the vector's typed slice — not a Value.Compare over boxed structs.
//
// The vector's type must match the predicate's bound types (the same
// contract Matches has via Value.Compare, which panics on mixed types;
// Query.Validate checks it against the schema up front).
func (p Predicate) FilterVector(vec *schema.Vector, sel Selection) Selection {
	out := sel[:0]
	switch vec.Type() {
	case schema.Int32, schema.Date:
		lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
		if p.Lo != nil {
			lo = int32(p.Lo.Long())
		}
		if p.Hi != nil {
			hi = int32(p.Hi.Long())
		}
		vals := vec.I32
		for _, i := range sel {
			if v := vals[i]; v >= lo && v <= hi {
				out = append(out, i)
			}
		}
	case schema.Int64:
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if p.Lo != nil {
			lo = p.Lo.Long()
		}
		if p.Hi != nil {
			hi = p.Hi.Long()
		}
		vals := vec.I64
		for _, i := range sel {
			if v := vals[i]; v >= lo && v <= hi {
				out = append(out, i)
			}
		}
	case schema.Float64:
		// Values are never NaN (schema.ParseValue rejects it so sort
		// orders stay total), so ±Inf sentinels are exact unbounded ends.
		lo, hi := math.Inf(-1), math.Inf(1)
		if p.Lo != nil {
			lo = p.Lo.Float()
		}
		if p.Hi != nil {
			hi = p.Hi.Float()
		}
		vals := vec.F64
		for _, i := range sel {
			if v := vals[i]; v >= lo && v <= hi {
				out = append(out, i)
			}
		}
	case schema.String:
		// Strings have no greatest element; unbounded sides need flags.
		var lo, hi string
		hasLo, hasHi := p.Lo != nil, p.Hi != nil
		if hasLo {
			lo = p.Lo.Str()
		}
		if hasHi {
			hi = p.Hi.Str()
		}
		// The values are windows of the column's bytes; string(v) in a
		// comparison does not copy them (TestStringKernelDoesNotAllocate).
		for _, i := range sel {
			v := vec.StrAt(int(i))
			if hasLo && string(v) < lo {
				continue
			}
			if hasHi && string(v) > hi {
				continue
			}
			out = append(out, i)
		}
	default:
		panic("query: FilterVector on invalid vector type")
	}
	return out
}

// MatchesBatch is the batch form of MatchesRow: it evaluates the
// conjunction over one batch of columnar data and returns the selection
// vector of qualifying rows. cols resolves an attribute position to that
// attribute's vector for the batch (only filter columns are requested, so
// callers can decode projection-only columns lazily afterwards — late
// materialization). sel is the starting selection, normally the identity
// selection over the batch (MakeSelection); it is filtered in place,
// conjunct by conjunct, with an empty-selection short-circuit.
//
// For any batch, row r is in the returned selection exactly when
// MatchesRow would accept the materialized row — the property test in
// batch_property_test.go holds the two forms equal on randomized blocks.
func (q *Query) MatchesBatch(cols func(col int) *schema.Vector, sel Selection) Selection {
	for _, p := range q.Filter {
		if len(sel) == 0 {
			break
		}
		sel = p.FilterVector(cols(p.Column), sel)
	}
	return sel
}
