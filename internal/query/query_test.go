package query

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

// userVisits mirrors the paper's UserVisits schema (§6.2): @1 sourceIP,
// @2 destURL, @3 visitDate, @4 adRevenue, @5 userAgent, @6 countryCode,
// @7 languageCode, @8 searchWord, @9 duration.
var userVisits = schema.MustNew(
	schema.Field{Name: "sourceIP", Type: schema.String},
	schema.Field{Name: "destURL", Type: schema.String},
	schema.Field{Name: "visitDate", Type: schema.Date},
	schema.Field{Name: "adRevenue", Type: schema.Float64},
	schema.Field{Name: "userAgent", Type: schema.String},
	schema.Field{Name: "countryCode", Type: schema.String},
	schema.Field{Name: "languageCode", Type: schema.String},
	schema.Field{Name: "searchWord", Type: schema.String},
	schema.Field{Name: "duration", Type: schema.Int32},
)

func TestParseBobQ1Annotation(t *testing.T) {
	// The exact annotation from paper §4.1.
	q, err := ParseAnnotation(userVisits,
		`@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`)
	if err != nil {
		t.Fatalf("ParseAnnotation: %v", err)
	}
	if len(q.Filter) != 1 {
		t.Fatalf("got %d predicates, want 1", len(q.Filter))
	}
	p := q.Filter[0]
	if p.Column != 2 {
		t.Errorf("filter column = %d, want 2", p.Column)
	}
	if p.Lo == nil || p.Hi == nil {
		t.Fatal("between produced unbounded predicate")
	}
	if p.Lo.Days() != schema.MustDate("1999-01-01") || p.Hi.Days() != schema.MustDate("2000-01-01") {
		t.Errorf("bounds = %v..%v", p.Lo, p.Hi)
	}
	if len(q.Projection) != 1 || q.Projection[0] != 0 {
		t.Errorf("projection = %v, want [0]", q.Projection)
	}
}

// isPoint reports whether p is an equality: both bounds set and equal.
func isPoint(p Predicate) bool {
	return p.Lo != nil && p.Hi != nil && p.Lo.Equal(*p.Hi)
}

func TestParseEqualityAndConjunction(t *testing.T) {
	// Bob-Q3: sourceIP = '172.101.11.46' AND visitDate = '1992-12-22'.
	q, err := ParseAnnotation(userVisits,
		`@HailQuery(filter="@1 = 172.101.11.46 and @3 = 1992-12-22", projection={@8,@9,@4})`)
	if err != nil {
		t.Fatalf("ParseAnnotation: %v", err)
	}
	if len(q.Filter) != 2 {
		t.Fatalf("got %d predicates, want 2", len(q.Filter))
	}
	if !isPoint(q.Filter[0]) || !isPoint(q.Filter[1]) {
		t.Error("expected two point predicates")
	}
	if got := q.Projection; len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 3 {
		t.Errorf("projection = %v, want [7 8 3]", got)
	}
}

func TestParseRangeConjunctionMerges(t *testing.T) {
	// Bob-Q4: adRevenue>=1 AND adRevenue<=10 merges to one range predicate.
	preds, err := ParseFilter(userVisits, "@4 >= 1 and @4 <= 10")
	if err != nil {
		t.Fatalf("ParseFilter: %v", err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predicates, want 1 merged", len(preds))
	}
	p := preds[0]
	if p.Lo == nil || p.Hi == nil || p.Lo.Float() != 1 || p.Hi.Float() != 10 {
		t.Errorf("merged bounds = %v..%v", p.Lo, p.Hi)
	}
}

func TestParseErrors(t *testing.T) {
	for _, ann := range []string{
		`@HailQuery filter="@1 = x"`,                          // no parens
		`@HailQuery(filter="@99 = x")`,                        // attribute out of range
		`@HailQuery(filter="@0 = x")`,                         // attributes are 1-based
		`@HailQuery(filter="@3 between(1999-01-01)")`,         // one bound
		`@HailQuery(filter="@3 like(x)")`,                     // unsupported op
		`@HailQuery(filter="@3 = not-a-date")`,                // bad literal
		`@HailQuery(filter=@3 = 1992-12-22)`,                  // unquoted filter
		`@HailQuery(projection={@1,@99})`,                     // projection out of range
		`@HailQuery(projection=[@1])`,                         // wrong braces
		`@HailQuery(frobnicate="x")`,                          // unknown key
		`@HailQuery(filter="@4 between(10,1)")`,               // empty range
		`@HailQuery(filter="@9 = 5 and @9 = 6", projection=)`, // malformed projection
	} {
		if _, err := ParseAnnotation(userVisits, ann); err == nil {
			t.Errorf("ParseAnnotation(%q) succeeded, want error", ann)
		}
	}
}

func TestEmptyAnnotationIsFullScan(t *testing.T) {
	q, err := ParseAnnotation(userVisits, `@HailQuery()`)
	if err != nil {
		t.Fatalf("ParseAnnotation: %v", err)
	}
	if len(q.Filter) != 0 {
		t.Errorf("filter = %v, want none", q.Filter)
	}
	if got := q.ProjectionOrAll(userVisits); len(got) != 9 {
		t.Errorf("ProjectionOrAll = %v, want all 9", got)
	}
}

func TestPredicateMatches(t *testing.T) {
	p := Between(0, schema.IntVal(10), schema.IntVal(20))
	for v, want := range map[int32]bool{9: false, 10: true, 15: true, 20: true, 21: false} {
		if got := p.Matches(schema.IntVal(v)); got != want {
			t.Errorf("between(10,20).Matches(%d) = %v, want %v", v, got, want)
		}
	}
	ge := AtLeast(0, schema.IntVal(5))
	if ge.Matches(schema.IntVal(4)) || !ge.Matches(schema.IntVal(5)) {
		t.Error("AtLeast misbehaves")
	}
	le := AtMost(0, schema.IntVal(5))
	if le.Matches(schema.IntVal(6)) || !le.Matches(schema.IntVal(5)) {
		t.Error("AtMost misbehaves")
	}
	eq := Eq(0, schema.StringVal("x"))
	if !isPoint(eq) || !eq.Matches(schema.StringVal("x")) || eq.Matches(schema.StringVal("y")) {
		t.Error("Eq misbehaves")
	}
}

func TestMatchesRowConjunction(t *testing.T) {
	q := &Query{Filter: []Predicate{
		Eq(0, schema.IntVal(1)),
		AtLeast(1, schema.IntVal(10)),
	}}
	if !q.MatchesRow(schema.Row{schema.IntVal(1), schema.IntVal(10)}) {
		t.Error("matching row rejected")
	}
	if q.MatchesRow(schema.Row{schema.IntVal(1), schema.IntVal(9)}) {
		t.Error("second conjunct ignored")
	}
	if q.MatchesRow(schema.Row{schema.IntVal(2), schema.IntVal(99)}) {
		t.Error("first conjunct ignored")
	}
}

func TestAnnotationRoundTrip(t *testing.T) {
	for _, ann := range []string{
		`@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`,
		`@HailQuery(filter="@1 = 172.101.11.46", projection={@8,@9,@4})`,
		`@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`,
	} {
		q, err := ParseAnnotation(userVisits, ann)
		if err != nil {
			t.Fatalf("parse %q: %v", ann, err)
		}
		q2, err := ParseAnnotation(userVisits, q.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("round trip: %q != %q", q.String(), q2.String())
		}
	}
}

func TestPredicateMatchesRangeProperty(t *testing.T) {
	f := func(lo, hi, v int32) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		p := Between(0, schema.IntVal(lo), schema.IntVal(hi))
		return p.Matches(schema.IntVal(v)) == (v >= lo && v <= hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := &Query{Filter: []Predicate{Eq(2, schema.StringVal("x"))}} // @3 is a Date
	if err := bad.Validate(userVisits); err == nil {
		t.Error("type-mismatched predicate validated")
	}
	badProj := &Query{Projection: []int{42}}
	if err := badProj.Validate(userVisits); err == nil {
		t.Error("out-of-range projection validated")
	}
}

func TestStringRendering(t *testing.T) {
	q := &Query{
		Filter:     []Predicate{Between(2, schema.DateVal(schema.MustDate("1999-01-01")), schema.DateVal(schema.MustDate("2000-01-01")))},
		Projection: []int{0},
	}
	s := q.String()
	for _, want := range []string{"@3 between(1999-01-01,2000-01-01)", "{@1}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSignatureNormalizesEquivalentQueries(t *testing.T) {
	// The same selection, written four different ways: operand order,
	// operator spelling (>=/<= vs between) and whitespace must not leak
	// into the signature — it is the result cache's key material.
	variants := []string{
		"@9 between(100,199) and @3 between(1999-01-01,2000-01-01)",
		"@3 between(1999-01-01,2000-01-01) and @9 between(100,199)",
		"@9 >= 100 and @3 between( 1999-01-01 , 2000-01-01 ) and @9 <= 199",
		"  @3   between(1999-01-01,2000-01-01)   and @9>=100 and @9<=199 ",
	}
	var first string
	for i, filter := range variants {
		preds, err := ParseFilter(userVisits, filter)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		sig := (&Query{Filter: preds, Projection: []int{0}}).Signature()
		if i == 0 {
			first = sig
			continue
		}
		if sig != first {
			t.Errorf("variant %d signature %q != %q", i, sig, first)
		}
	}
	if !strings.Contains(first, "@3[1999-01-01..2000-01-01]") ||
		!strings.Contains(first, "@9[100..199]") {
		t.Errorf("signature %q missing canonical intervals", first)
	}
}

func TestSignatureDistinguishesDifferentQueries(t *testing.T) {
	base := &Query{Filter: []Predicate{Eq(0, schema.StringVal("x"))}, Projection: []int{1}}
	cases := []*Query{
		{Filter: []Predicate{Eq(0, schema.StringVal("y"))}, Projection: []int{1}}, // other value
		{Filter: []Predicate{Eq(1, schema.StringVal("x"))}, Projection: []int{1}}, // other column
		{Filter: []Predicate{Eq(0, schema.StringVal("x"))}, Projection: []int{2}}, // other projection
		{Filter: []Predicate{Eq(0, schema.StringVal("x"))}},                       // project-all
		{Filter: []Predicate{AtLeast(0, schema.StringVal("x"))}, Projection: []int{1}},
	}
	for i, q := range cases {
		if q.Signature() == base.Signature() {
			t.Errorf("case %d: distinct query shares signature %q", i, base.Signature())
		}
	}
	var nilQ *Query
	if nilQ.Signature() != (&Query{}).Signature() {
		t.Error("nil query and empty query must share the full-scan signature")
	}
}

func TestSignatureProjectionOrderMatters(t *testing.T) {
	a := &Query{Projection: []int{0, 1}}
	b := &Query{Projection: []int{1, 0}}
	if a.Signature() == b.Signature() {
		t.Error("projection order changes output rows and must change the signature")
	}
}

func TestSignatureStringBoundsUnambiguous(t *testing.T) {
	// String bounds may contain the canonical form's own delimiters;
	// without quoting, these two distinct selections would collide on one
	// signature — and the result cache would serve one query's rows for
	// the other.
	a := &Query{Filter: []Predicate{Between(0, schema.StringVal("a..b"), schema.StringVal("c"))}}
	b := &Query{Filter: []Predicate{Between(0, schema.StringVal("a"), schema.StringVal("b..c"))}}
	if a.Signature() == b.Signature() {
		t.Fatalf("distinct string-bound queries share signature %q", a.Signature())
	}
	c := &Query{Filter: []Predicate{
		Eq(0, schema.StringVal(`x".."y`)),
	}}
	d := &Query{Filter: []Predicate{
		Eq(0, schema.StringVal(`x".."z`)),
	}}
	if c.Signature() == d.Signature() {
		t.Fatalf("quote-bearing bounds collide: %q", c.Signature())
	}
}
