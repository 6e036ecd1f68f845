package schema

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary form of a typed value, shared by every store that writes
// values as bytes — a PAX column, the clustered index stored with a
// replica, the Hadoop++ baseline's rows and trojan index. A fixed-size
// value is its bits (ParseFixed's form) little-endian in its type's
// Width(); a string is its length in a little-endian uint16 and its bytes.
// A PAX column stores strings zero-terminated instead, so it uses the
// fixed half alone.

// Bits returns the bits a fixed-size value is stored as: an int32 or a
// date in the low 32 bits, an int64 or a float64's IEEE 754 bits in all 64.
// A string value has none and returns 0.
func (v Value) Bits() uint64 {
	switch v.typ {
	case Int32, Date:
		return uint64(uint32(v.num))
	case Float64:
		return math.Float64bits(v.f)
	}
	return uint64(v.num)
}

// FixedValue returns the value of the fixed-size type t whose bits are
// bits: Bits' inverse.
func FixedValue(t Type, bits uint64) Value {
	switch t {
	case Int32, Date:
		return Value{typ: t, num: int64(int32(bits))}
	case Float64:
		return Value{typ: t, f: math.Float64frombits(bits)}
	}
	return Value{typ: t, num: int64(bits)}
}

// AppendFixed appends the bits of a value of the fixed-size type t to dst,
// little-endian in t.Width() bytes.
func AppendFixed(dst []byte, t Type, bits uint64) []byte {
	if t.Width() == 4 {
		return binary.LittleEndian.AppendUint32(dst, uint32(bits))
	}
	return binary.LittleEndian.AppendUint64(dst, bits)
}

// LoadFixed returns the bits of the value of the fixed-size type t that
// AppendFixed wrote at the start of b. b may be longer than t.Width().
func LoadFixed[S []byte | string](t Type, b S) uint64 {
	_ = b[3]
	bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
	if t == Int64 || t == Float64 {
		_ = b[7]
		bits |= uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	return bits
}

// AppendBinary appends v's binary form to dst. It refuses a string longer
// than a uint16 can count.
func AppendBinary(dst []byte, v Value) ([]byte, error) {
	switch {
	case v.typ == String && len(v.s) > math.MaxUint16:
		return dst, fmt.Errorf("schema: string of %d bytes exceeds the binary form's %d", len(v.s), math.MaxUint16)
	case v.typ == String:
		return append(binary.LittleEndian.AppendUint16(dst, uint16(len(v.s))), v.s...), nil
	case !v.typ.FixedSize():
		return dst, fmt.Errorf("schema: no binary form for a %s value", v.typ)
	}
	return AppendFixed(dst, v.typ, v.Bits()), nil
}

// ReadBinary decodes the binary form of a value of type t at b[off:] and
// returns it with the offset just past it. A string read from a string
// source is a substring of it and copies nothing; from a byte slice it is
// one copy of its bytes.
func ReadBinary[S []byte | string](t Type, b S, off int) (Value, int, error) {
	w := t.Width()
	if t == String {
		w = 2
	}
	if w == 0 || off < 0 || len(b)-off < w {
		return Value{}, 0, readError(t, off)
	}
	if t != String {
		return FixedValue(t, LoadFixed(t, b[off:])), off + w, nil
	}
	n := int(b[off]) | int(b[off+1])<<8
	if off += 2; len(b)-off < n {
		return Value{}, 0, readError(t, off)
	}
	return StringVal(string(b[off : off+n])), off + n, nil
}

// readError is ReadBinary's failure: a type with no binary form, or bytes
// that end before the value at off does.
func readError(t Type, off int) error {
	if t.Width() == 0 && t != String {
		return fmt.Errorf("schema: no binary form for type %s", t)
	}
	return fmt.Errorf("schema: truncated %s value at byte %d", t, off)
}
