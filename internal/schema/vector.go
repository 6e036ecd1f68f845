package schema

import (
	"fmt"
	"strconv"
)

// Vector is the columnar counterpart of Row: all values of one attribute
// for a batch of rows, stored in a typed slice with no per-value boxing.
// The vectorized scan pipeline decodes PAX column bytes into Vectors and
// evaluates predicates directly over the typed slices, so a comparison is
// a native int/float/string compare instead of a Value.Compare call over
// boxed structs.
//
// Exactly one of the typed forms is in use, selected by the vector's
// type (Int32 and Date share I32, as they do in the PAX layout). The
// slices are exported so kernels and decoders can work on them directly;
// use Reset to reuse a vector's capacity across batches.
//
// A String vector holds no Go strings: value i is Bytes[Start[i]:End[i]].
// A column cursor points Bytes at the stored column range itself — with
// its capacity clamped to its length, so Append can only copy it, never
// write into it — and fills the span directory from the terminators it
// walks anyway, so decoding a string column allocates nothing. The bytes
// belong to an immutable replica: read them, never write them, and only
// until the vector's next Reset.
type Vector struct {
	typ Type
	I32 []int32
	I64 []int64
	F64 []float64

	Bytes      []byte
	Start, End []uint32
}

// NewVector returns an empty vector of the given type.
func NewVector(t Type) *Vector { return &Vector{typ: t} }

// Type returns the vector's value type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.typ {
	case Int32, Date:
		return len(v.I32)
	case Int64:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	case String:
		return len(v.Start)
	}
	return 0
}

// StrAt returns the i-th value of a String vector: a window of Bytes,
// valid as long as the vector is and not to be written.
func (v *Vector) StrAt(i int) []byte { return v.Bytes[v.Start[i]:v.End[i]] }

// Reset truncates the vector to length zero, keeping its capacity, so one
// scratch vector serves every batch of a scan. Bytes is dropped rather
// than truncated: it may be a replica's.
func (v *Vector) Reset() {
	v.I32 = v.I32[:0]
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Bytes = nil
	v.Start, v.End = v.Start[:0], v.End[:0]
}

// Gather compacts the vector in place to the values at the given indices,
// which must be ascending. The scan pipeline uses it to shrink filter
// columns down to a batch's surviving rows, so emitted batches carry only
// survivor values; ascending order makes the in-place move safe (each
// destination slot is at or before its source).
func (v *Vector) Gather(sel []int32) {
	switch v.typ {
	case Int32, Date:
		for j, s := range sel {
			v.I32[j] = v.I32[s]
		}
		v.I32 = v.I32[:len(sel)]
	case Int64:
		for j, s := range sel {
			v.I64[j] = v.I64[s]
		}
		v.I64 = v.I64[:len(sel)]
	case Float64:
		for j, s := range sel {
			v.F64[j] = v.F64[s]
		}
		v.F64 = v.F64[:len(sel)]
	case String:
		for j, s := range sel {
			v.Start[j], v.End[j] = v.Start[s], v.End[s]
		}
		v.Start, v.End = v.Start[:len(sel)], v.End[:len(sel)]
	}
}

// Value boxes the i-th value — Batch.Each's row adapter, and the one place
// a string vector's value becomes a Go string (one allocation each).
// Kernels read the typed slices and formatters use AppendText.
func (v *Vector) Value(i int) Value {
	switch v.typ {
	case Int32:
		return IntVal(v.I32[i])
	case Date:
		return DateVal(v.I32[i])
	case Int64:
		return LongVal(v.I64[i])
	case Float64:
		return FloatVal(v.F64[i])
	case String:
		return StringVal(string(v.StrAt(i)))
	}
	panic(fmt.Sprintf("schema: Value on invalid vector type %d", v.typ))
}

// Append boxes-in one value, which must match the vector's type. Decoders
// fill the typed slices directly; Append is the convenience path for
// tests and builders.
func (v *Vector) Append(val Value) {
	if val.Type() != v.typ {
		panic(fmt.Sprintf("schema: appending %s value to %s vector", val.Type(), v.typ))
	}
	switch v.typ {
	case Int32, Date:
		v.I32 = append(v.I32, int32(val.Long()))
	case Int64:
		v.I64 = append(v.I64, val.Long())
	case Float64:
		v.F64 = append(v.F64, val.Float())
	case String:
		v.Start = append(v.Start, uint32(len(v.Bytes)))
		v.Bytes = append(v.Bytes, val.Str()...)
		v.End = append(v.End, uint32(len(v.Bytes)))
	}
}

// AppendText appends the i-th value's text — exactly Value(i).String() —
// to dst without boxing it or building a string.
func (v *Vector) AppendText(dst []byte, i int) []byte {
	switch v.typ {
	case Int32:
		return strconv.AppendInt(dst, int64(v.I32[i]), 10)
	case Date:
		return AppendDate(dst, v.I32[i])
	case Int64:
		return strconv.AppendInt(dst, v.I64[i], 10)
	case Float64:
		return AppendFloat(dst, v.F64[i])
	case String:
		return append(dst, v.StrAt(i)...)
	}
	panic(fmt.Sprintf("schema: AppendText on invalid vector type %d", v.typ))
}
