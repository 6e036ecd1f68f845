package schema

import (
	"fmt"
	"slices"
	"strings"
)

// Row is one parsed record: one Value per schema attribute.
type Row []Value

// Line renders the row back to its delimited text form.
func (r Row) Line(sep byte) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(sep)
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// Equal reports whether two rows have identical values.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Parser parses delimited text lines into typed rows against a schema.
// A line that does not match the schema (wrong field count or a value that
// fails to parse) is a bad record in the paper's sense (§3.1): it is kept
// verbatim and routed to the bad-record section of the block.
type Parser struct {
	Schema *Schema
	Sep    byte // field separator, e.g. ',' or '|'
}

// NewParser returns a Parser with the conventional comma separator.
func NewParser(s *Schema) *Parser { return &Parser{Schema: s, Sep: ','} }

// ParseLine parses one text line. On success it returns the typed row; on
// failure it returns a descriptive error and the row is nil.
func (p *Parser) ParseLine(line string) (Row, error) {
	row, err := p.ParseInto(make(Row, 0, p.Schema.NumFields()), line)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// ParseInto is ParseLine into the caller's row: it overwrites dst from its
// start and returns it, so a loop that copies each row out before parsing
// the next line (pax.Block.AppendRow does) parses without allocating.
// String values alias line. After an error dst holds nothing of use.
//
// A line holding a NUL byte is a bad record whatever its fields: no string
// attribute can store one (PAX values are zero-terminated) and no other
// type parses it.
func (p *Parser) ParseInto(dst Row, line string) (Row, error) {
	if strings.IndexByte(line, 0) >= 0 {
		return dst, fmt.Errorf("schema: NUL byte in %q", line)
	}
	n := p.Schema.NumFields()
	row := slices.Grow(dst[:0], n)[:n]
	rest := line
	for i := range row {
		f := &p.Schema.fields[i]
		var fieldText string
		if i == n-1 {
			// Last field consumes the remainder; a stray separator in it
			// means a field-count mismatch.
			if f.Type != String && strings.IndexByte(rest, p.Sep) >= 0 {
				return row, fmt.Errorf("schema: too many fields in %q", line)
			}
			fieldText = rest
		} else {
			j := strings.IndexByte(rest, p.Sep)
			if j < 0 {
				return row, fmt.Errorf("schema: too few fields in %q", line)
			}
			fieldText, rest = rest[:j], rest[j+1:]
		}
		if err := row[i].parse(f.Type, fieldText); err != nil {
			return row, fmt.Errorf("schema: field %d (%s): %v", i, f.Name, err)
		}
	}
	return row, nil
}

// RowKey is a comparable, canonical encoding of a row, usable as a map key
// when comparing multisets of rows in tests and invariant checks.
func RowKey(r Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.String())
	}
	return b.String()
}
