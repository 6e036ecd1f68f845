// Package schema defines typed relational schemas and row values for HAIL.
//
// HAIL parses text input (CSV-like log lines) into typed binary rows at
// upload time (paper §3.1). A Schema describes the attribute names and
// types of a dataset; Row is one parsed record. Records that fail to parse
// against the schema are "bad records" and are preserved verbatim in a
// dedicated section of each block (paper §3.1, §3.5).
package schema

import (
	"fmt"
	"strings"
)

// Type identifies the physical type of an attribute.
type Type uint8

// Supported attribute types. Int32, Int64 and Float64 are fixed-size;
// String and Date are variable-size and fixed-size respectively. Date is
// stored as days since the Unix epoch in an int32.
const (
	Invalid Type = iota
	Int32
	Int64
	Float64
	Date
	String
)

// String returns the lower-case name of the type as used in schema DDL.
func (t Type) String() string {
	switch t {
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Date:
		return "date"
	case String:
		return "string"
	default:
		return "invalid"
	}
}

// FixedSize reports whether values of the type occupy a constant number of
// bytes in a PAX block.
func (t Type) FixedSize() bool { return t != String && t != Invalid }

// Width returns the on-disk width in bytes of a fixed-size type and 0 for
// variable-size types.
func (t Type) Width() int {
	switch t {
	case Int32, Date:
		return 4
	case Int64, Float64:
		return 8
	default:
		return 0
	}
}

// ParseType parses a type name as accepted by ParseSchema.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int32", "int":
		return Int32, nil
	case "int64", "long":
		return Int64, nil
	case "float64", "float", "double":
		return Float64, nil
	case "date":
		return Date, nil
	case "string", "varchar", "text":
		return String, nil
	default:
		return Invalid, fmt.Errorf("schema: unknown type %q", s)
	}
}

// Field is one attribute of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema describes the attributes of a dataset. Attribute positions are
// 1-based in user-facing query annotations (paper §4.1 uses @1, @3, ...)
// and 0-based in the API.
type Schema struct {
	fields []Field
	byName map[string]int
}

// New builds a schema from the given fields. Field names must be non-empty
// and unique.
func New(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("schema: no fields")
	}
	byName := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("schema: field %d has empty name", i)
		}
		if f.Type == Invalid || f.Type > String {
			return nil, fmt.Errorf("schema: field %q has invalid type", f.Name)
		}
		if _, dup := byName[f.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate field name %q", f.Name)
		}
		byName[f.Name] = i
	}
	return &Schema{fields: append([]Field(nil), fields...), byName: byName}, nil
}

// MustNew is like New but panics on error. Intended for statically known
// schemas such as the benchmark datasets.
func MustNew(fields ...Field) *Schema {
	s, err := New(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseSchema parses a DDL-like schema string of the form
// "name:type,name:type,...", e.g. "sourceIP:string,visitDate:date".
func ParseSchema(ddl string) (*Schema, error) {
	parts := strings.Split(ddl, ",")
	fields := make([]Field, 0, len(parts))
	for _, p := range parts {
		nt := strings.SplitN(strings.TrimSpace(p), ":", 2)
		if len(nt) != 2 {
			return nil, fmt.Errorf("schema: malformed field spec %q", p)
		}
		typ, err := ParseType(nt[1])
		if err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: strings.TrimSpace(nt[0]), Type: typ})
	}
	return New(fields...)
}

// NumFields returns the number of attributes.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th (0-based) attribute.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Index returns the 0-based position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// String formats the schema in the DDL form accepted by ParseSchema.
func (s *Schema) String() string {
	var b strings.Builder
	for i, f := range s.fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Type.String())
	}
	return b.String()
}

// Equal reports whether two schemas have identical fields.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil {
		return false
	}
	if len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}
