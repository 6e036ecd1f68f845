package workload

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/hadoop"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
)

// collect runs the standard-Hadoop map derived from q's annotation over
// raw lines and returns the emitted keys.
func collect(s *schema.Schema, q *query.Query, lines []string) []string {
	var out []string
	emit := mapred.Emit(func(k, v string) { out = append(out, k) })
	hadoop.Map(s, q)(&mapred.Batch{Raw: lines}, emit)
	return out
}

func TestHadoopMapsMatchHailSemantics(t *testing.T) {
	// For every Bob query, the Hadoop map function over raw text must
	// produce exactly what HAIL's declarative path produces: the projected
	// attributes of matching rows.
	lines := GenerateUserVisits(20000, 31, UserVisitsOptions{NeedleEvery: 2000, BadEvery: 500})
	p := schema.NewParser(UserVisitsSchema())
	for _, bq := range BobQueries() {
		got := collect(UserVisitsSchema(), bq.Query, lines)
		var want []string
		for _, l := range lines {
			row, err := p.ParseLine(l)
			if err != nil {
				continue
			}
			if !bq.Query.MatchesRow(row) {
				continue
			}
			proj := make(schema.Row, len(bq.Query.Projection))
			for j, c := range bq.Query.Projection {
				proj[j] = row[c]
			}
			want = append(want, proj.Line(','))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: Hadoop map emitted %d rows, typed path %d", bq.Name, len(got), len(want))
		}
		gotSet := map[string]int{}
		for _, k := range got {
			gotSet[k]++
		}
		for _, k := range want {
			if gotSet[k] == 0 {
				t.Fatalf("%s: typed result %q missing from Hadoop map output", bq.Name, k)
			}
			gotSet[k]--
		}
	}
}

func TestSynHadoopMapsMatchTypedPath(t *testing.T) {
	lines := GenerateSynthetic(15000, 37)
	p := schema.NewParser(SyntheticSchema())
	for _, bq := range SynQueries() {
		got := collect(SyntheticSchema(), bq.Query, lines)
		count := 0
		for _, l := range lines {
			row, err := p.ParseLine(l)
			if err != nil {
				t.Fatal(err)
			}
			if bq.Query.MatchesRow(row) {
				count++
			}
		}
		if len(got) != count {
			t.Fatalf("%s: Hadoop map emitted %d rows, want %d", bq.Name, len(got), count)
		}
		// Projection width shows in the emitted field count.
		if count > 0 {
			fields := strings.Count(got[0], ",") + 1
			if fields != len(bq.Query.Projection) {
				t.Errorf("%s: emitted %d fields, want %d", bq.Name, fields, len(bq.Query.Projection))
			}
		}
	}
}

func TestHadoopMapsSkipMalformedLines(t *testing.T) {
	bad := []string{
		"",
		"too,few,fields",
		"a,b,c,d,e,f,g,h,i,j,k", // too many for Synthetic? 11 != 19; also != 9 for UV
		"CORRUPT LINE 7 WITHOUT PROPER FIELDS",
	}
	for _, bq := range BobQueries() {
		if got := collect(UserVisitsSchema(), bq.Query, bad); len(got) != 0 {
			t.Errorf("%s emitted %d rows for malformed input", bq.Name, len(got))
		}
	}
	for _, bq := range SynQueries() {
		if got := collect(SyntheticSchema(), bq.Query, bad); len(got) != 0 {
			t.Errorf("%s emitted %d rows for malformed input", bq.Name, len(got))
		}
	}
}

// TestPassthroughMap holds the row form, which only bench/ declares, to
// PassthroughMapBatch: over a batch of rows and a bad record both emit the
// rows' text and skip the bad record.
func TestPassthroughMap(t *testing.T) {
	ints, strs := schema.NewVector(schema.Int32), schema.NewVector(schema.String)
	for i, s := range []string{"x", "a,b", ""} {
		ints.Append(schema.IntVal(int32(i)))
		strs.Append(schema.StringVal(s))
	}
	b := &mapred.Batch{Cols: []*schema.Vector{ints, strs}, Rows: 3, Bad: []string{"junk"}}
	var rows, batch []string
	emitTo := func(out *[]string) mapred.Emit { return func(k, _ string) { *out = append(*out, k) } }
	//lint:ignore SA1019 the compatibility wrapper's own equivalence test
	b.Each(func(r mapred.Record) { PassthroughMap(r, emitTo(&rows)) })
	PassthroughMapBatch(b, emitTo(&batch))
	if want := []string{"0,x", "1,a,b", "2,"}; !slices.Equal(rows, want) || !slices.Equal(batch, want) {
		t.Errorf("PassthroughMap emitted %q, PassthroughMapBatch %q; want %q", rows, batch, want)
	}
}

func TestBobQ4Q5BoundaryValues(t *testing.T) {
	// adRevenue range predicates are inclusive on both ends; make the
	// text and typed paths agree at the exact boundaries.
	mk := func(rev string) string {
		return "1.2.3.4,http://x/,1999-06-15," + rev + ",agent,DEU,de-DE,word,42"
	}
	q4 := BobQueries()[3]
	cases := map[string]bool{"0.9": false, "1": true, "5.5": true, "10": true, "10.1": false}
	for rev, want := range cases {
		got := len(collect(UserVisitsSchema(), q4.Query, []string{mk(rev)})) == 1
		if got != want {
			t.Errorf("Bob-Q4 Hadoop map at adRevenue=%s: %v, want %v", rev, got, want)
		}
		p := schema.NewParser(UserVisitsSchema())
		row, err := p.ParseLine(mk(rev))
		if err != nil {
			t.Fatal(err)
		}
		if q4.Query.MatchesRow(row) != want {
			t.Errorf("Bob-Q4 typed path at adRevenue=%s: %v, want %v", rev, !want, want)
		}
	}
}
