package schema

import (
	"fmt"
	"strings"
)

// Row is one parsed record: one Value per schema attribute.
type Row []Value

// Line renders the row back to its delimited text form. No binary calls
// it: it is the oracle Batch.Lines is held to.
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

// Equal reports whether two rows have identical values (a test oracle).
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

// ParseLine parses one text line. On success it returns the typed row,
// whose string values alias line; on failure it returns a descriptive
// error and the row is nil.
func (p *Parser) ParseLine(line string) (Row, error) {
	row := make(Row, p.Schema.NumFields())
	err := p.Split(line, func(i int, text string) error {
		var err error
		row[i], err = ParseValue(p.Schema.fields[i].Type, text)
		return err
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// Split cuts line into the schema's fields and hands each field's text to
// fn in order, stopping at the first error. It is the reference parser's
// cut and the one definition of a bad record: ParseLine goes through it,
// and so does the upload path's pax.Block.AppendLine for every line its
// one-pass fast path (schema.ScanFixed's forms) does not take, which
// includes every bad record, so Split words each error:
//   - a line holding a NUL byte is bad whatever its fields: no string
//     attribute can store one (PAX values are zero-terminated) and no other
//     type parses it;
//   - a line with fewer fields than the schema is bad;
//   - the last field takes the rest of the line: a separator in it is part
//     of a string value, and for any other type means too many fields;
//   - a field fn rejects makes the line bad; fn's error is wrapped with the
//     field's position and name.
func (p *Parser) Split(line string, fn func(i int, text string) error) error {
	if strings.IndexByte(line, 0) >= 0 {
		return fmt.Errorf("schema: NUL byte in %q", line)
	}
	last := len(p.Schema.fields) - 1
	rest := line
	for i := range p.Schema.fields {
		f := &p.Schema.fields[i]
		text := rest
		if i < last {
			j := strings.IndexByte(rest, p.Sep)
			if j < 0 {
				return fmt.Errorf("schema: too few fields in %q", line)
			}
			text, rest = rest[:j], rest[j+1:]
		} else if f.Type != String && strings.IndexByte(rest, p.Sep) >= 0 {
			return fmt.Errorf("schema: too many fields in %q", line)
		}
		if err := fn(i, text); err != nil {
			return fmt.Errorf("schema: field %d (%s): %w", i, f.Name, err)
		}
	}
	return nil
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
