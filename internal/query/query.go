// Package query defines selection predicates, projections, and the
// HailQuery annotation syntax that MapReduce jobs use to tell HAIL what a
// map function needs (paper §4.1).
//
// A job annotated with
//
//	@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})
//
// receives only the projected attributes of the tuples matching the filter.
// Attribute references are 1-based (@1 is the first attribute), following
// the paper. A filter is a conjunction of per-attribute predicates; HAIL
// picks a clustered index matching one of them and post-filters the rest.
//
// Predicates evaluate in two forms. Matches/MatchesRow compare boxed
// schema.Values one row at a time. The vectorized form works on whole
// batches: FilterVector runs one predicate as a typed kernel over a
// schema.Vector, writing the indices of surviving rows into a Selection
// (a selection vector), and MatchesBatch chains the conjunction by
// feeding each predicate the previous one's survivors — intersection by
// construction, with an empty-selection short circuit. Both forms are
// equivalence-tested against each other on randomized blocks.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/schema"
)

// Predicate is a range or point condition on a single attribute. Bounds are
// inclusive; a nil bound is unbounded on that side. A point predicate has
// Lo == Hi.
type Predicate struct {
	Column int // 0-based attribute position
	Lo, Hi *schema.Value
}

// Eq returns the point predicate column = v.
func Eq(column int, v schema.Value) Predicate {
	return Predicate{Column: column, Lo: &v, Hi: &v}
}

// Between returns the inclusive range predicate lo <= column <= hi.
func Between(column int, lo, hi schema.Value) Predicate {
	return Predicate{Column: column, Lo: &lo, Hi: &hi}
}

// AtLeast returns column >= lo.
func AtLeast(column int, lo schema.Value) Predicate {
	return Predicate{Column: column, Lo: &lo}
}

// AtMost returns column <= hi.
func AtMost(column int, hi schema.Value) Predicate {
	return Predicate{Column: column, Hi: &hi}
}

// Matches reports whether value v (of the predicate's attribute) satisfies
// the predicate.
func (p Predicate) Matches(v schema.Value) bool {
	if p.Lo != nil && v.Compare(*p.Lo) < 0 {
		return false
	}
	if p.Hi != nil && v.Compare(*p.Hi) > 0 {
		return false
	}
	return true
}

// Canonical renders the predicate as a whitespace-free interval,
// independent of how it was constructed: `@8 >= 1 and @8 <= 10`,
// `@8 between(1,10)` and `@8 between( 1 , 10 )` all canonicalize to
// "@8[1..10]". Unbounded sides render as -inf / +inf. This is the stable
// string form cache keys and logs are built from, so it must be
// injective: string-typed bounds are quoted (they may contain the ".."
// and ";" delimiters); numeric and date renderings cannot.
func (p Predicate) Canonical() string {
	canon := func(v *schema.Value, unbounded string) string {
		if v == nil {
			return unbounded
		}
		if v.Type() == schema.String {
			return strconv.Quote(v.String())
		}
		return v.String()
	}
	return fmt.Sprintf("@%d[%s..%s]", p.Column+1, canon(p.Lo, "-inf"), canon(p.Hi, "+inf"))
}

// String renders the predicate in annotation syntax, in a form that parses
// back to the same bounds: a range whose lower bound holds the separator
// is written as two conjuncts, and only bounds that print alike (not 0 and
// -0) as a point.
func (p Predicate) String() string {
	switch {
	case p.Lo != nil && p.Hi != nil && p.Lo.String() == p.Hi.String():
		return fmt.Sprintf("@%d = %s", p.Column+1, p.Lo)
	case p.Lo != nil && p.Hi != nil && strings.Contains(p.Lo.String(), ","):
		return fmt.Sprintf("@%d >= %s and @%d <= %s", p.Column+1, p.Lo, p.Column+1, p.Hi)
	case p.Lo != nil && p.Hi != nil:
		return fmt.Sprintf("@%d between(%s,%s)", p.Column+1, p.Lo, p.Hi)
	case p.Lo != nil:
		return fmt.Sprintf("@%d >= %s", p.Column+1, p.Lo)
	case p.Hi != nil:
		return fmt.Sprintf("@%d <= %s", p.Column+1, p.Hi)
	default:
		return fmt.Sprintf("@%d any", p.Column+1)
	}
}

// Query is the selection and projection a map function declared. A nil or
// empty Filter means full scan; an empty Projection means all attributes
// (paper §4.3: "In case that no projection was specified by users, we then
// reconstruct all attributes").
type Query struct {
	Filter     []Predicate // conjunction
	Projection []int       // 0-based attribute positions, in output order
}

// MatchesRow evaluates the conjunction against a materialized row.
func (q *Query) MatchesRow(row schema.Row) bool {
	for _, p := range q.Filter {
		if !p.Matches(row[p.Column]) {
			return false
		}
	}
	return true
}

// ProjectionOrAll resolves the projection against a schema: an empty
// projection expands to all attributes.
func (q *Query) ProjectionOrAll(s *schema.Schema) []int {
	if len(q.Projection) > 0 {
		return q.Projection
	}
	all := make([]int, s.NumFields())
	for i := range all {
		all[i] = i
	}
	return all
}

// Validate checks attribute positions and bound types against a schema.
func (q *Query) Validate(s *schema.Schema) error {
	for _, p := range q.Filter {
		if p.Column < 0 || p.Column >= s.NumFields() {
			return fmt.Errorf("query: filter attribute @%d out of range", p.Column+1)
		}
		t := s.Field(p.Column).Type
		if p.Lo != nil && p.Lo.Type() != t {
			return fmt.Errorf("query: filter on @%d: bound type %s, attribute type %s", p.Column+1, p.Lo.Type(), t)
		}
		if p.Hi != nil && p.Hi.Type() != t {
			return fmt.Errorf("query: filter on @%d: bound type %s, attribute type %s", p.Column+1, p.Hi.Type(), t)
		}
		if p.Lo != nil && p.Hi != nil && p.Lo.Compare(*p.Hi) > 0 {
			return fmt.Errorf("query: filter on @%d: empty range (%s > %s)", p.Column+1, p.Lo, p.Hi)
		}
	}
	for _, c := range q.Projection {
		if c < 0 || c >= s.NumFields() {
			return fmt.Errorf("query: projection attribute @%d out of range", c+1)
		}
	}
	return nil
}

// Signature returns a canonical, normalized identity of the query's
// semantics: predicates on the same attribute are intersected, conjuncts
// are ordered by attribute, and each is rendered in its Canonical interval
// form, so two queries that select the same rows and project the same
// attributes have equal signatures regardless of operand order, operator
// spelling (>=/<= vs between) or whitespace. The block-level result cache
// keys entries by this string; it is also the stable form for logs.
// Projection order is preserved — it changes the output rows.
func (q *Query) Signature() string {
	if q == nil {
		q = &Query{}
	}
	merged := mergeConjuncts(append([]Predicate(nil), q.Filter...))
	sort.Slice(merged, func(i, j int) bool { return merged[i].Column < merged[j].Column })
	var b strings.Builder
	b.WriteString("f{")
	for i, p := range merged {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.Canonical())
	}
	b.WriteString("}|p{")
	if len(q.Projection) == 0 {
		b.WriteByte('*')
	}
	for i, c := range q.Projection {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "@%d", c+1)
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the query in annotation syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(`@HailQuery(filter="`)
	for i, p := range q.Filter {
		if i > 0 {
			b.WriteString(" and ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(`", projection={`)
	for i, c := range q.Projection {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "@%d", c+1)
	}
	b.WriteString("})")
	return b.String()
}
