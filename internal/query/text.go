package query

import (
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/schema"
)

// EvalText evaluates the query over one comma-separated text line of
// schema s, the way a standard-Hadoop map function does (§4.1): split the
// line into attributes, parse the ones the filter and projection need,
// compare each conjunct against the Predicate bounds, and render the
// projection in canonical text — each value as schema.Value.String would
// print it. ok is false for a line that does not select a row: a line
// with a NUL byte, the wrong field count or an attribute that does not
// parse (a NaN float included) — a bad record — and a good line the
// filter rejects. A trailing String attribute takes the rest of the line,
// separators included.
//
// It uses strconv and time and nothing of the system's text path — not
// the upload parser, the PAX decoder, the kernels or the formatters — so
// it is the oracle the engine is fuzzed against, and the Hadoop
// baseline's map function.
func (q *Query) EvalText(s *schema.Schema, line string) (row string, ok bool) {
	n := s.NumFields()
	if strings.IndexByte(line, 0) >= 0 {
		return "", false
	}
	fields := strings.SplitN(line, ",", n)
	if len(fields) != n || s.Field(n-1).Type != schema.String && strings.IndexByte(fields[n-1], ',') >= 0 {
		return "", false
	}
	vals := make([]textValue, n)
	for i, f := range fields {
		if vals[i], ok = parseText(s.Field(i).Type, f); !ok {
			return "", false
		}
	}
	for _, p := range q.Filter {
		if !vals[p.Column].within(p) {
			return "", false
		}
	}
	var b []byte
	for i, c := range q.ProjectionOrAll(s) {
		if i > 0 {
			b = append(b, ',')
		}
		b = vals[c].appendText(b)
	}
	return string(b), true
}

// textValue is one parsed attribute of EvalText: an integer (Int32, Int64,
// and Date as days since the Unix epoch), a float, or a string.
type textValue struct {
	typ schema.Type
	i   int64
	f   float64
	s   string
}

func parseText(t schema.Type, f string) (textValue, bool) {
	v := textValue{typ: t}
	var err error
	switch t {
	case schema.Int32:
		v.i, err = strconv.ParseInt(f, 10, 32)
	case schema.Int64:
		v.i, err = strconv.ParseInt(f, 10, 64)
	case schema.Float64:
		v.f, err = strconv.ParseFloat(f, 64)
		if math.IsNaN(v.f) {
			return v, false
		}
	case schema.Date:
		var d time.Time
		d, err = time.Parse(time.DateOnly, f)
		v.i = d.Unix() / 86400
	case schema.String:
		v.s = f
	}
	return v, err == nil
}

// within compares the value against the predicate's inclusive bounds.
func (v textValue) within(p Predicate) bool {
	return (p.Lo == nil || v.compare(*p.Lo) >= 0) && (p.Hi == nil || v.compare(*p.Hi) <= 0)
}

// compare orders v against a bound of the same type.
func (v textValue) compare(bound schema.Value) int {
	switch v.typ {
	case schema.Float64:
		switch f := bound.Float(); {
		case v.f < f:
			return -1
		case v.f > f:
			return 1
		}
		return 0
	case schema.String:
		return strings.Compare(v.s, bound.Str())
	default:
		switch i := bound.Long(); {
		case v.i < i:
			return -1
		case v.i > i:
			return 1
		}
		return 0
	}
}

// appendText renders the value canonically.
func (v textValue) appendText(b []byte) []byte {
	switch v.typ {
	case schema.Int32, schema.Int64:
		return strconv.AppendInt(b, v.i, 10)
	case schema.Float64:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case schema.Date:
		return time.Unix(v.i*86400, 0).UTC().AppendFormat(b, time.DateOnly)
	}
	return append(b, v.s...)
}
