package query_test

import (
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// FuzzParseAnnotation: whatever the text, parsing an annotation against
// either benchmark schema yields a query or an error, never a panic or an
// allocation out of proportion to the text; and a query that parses
// reparses from its String form to the same Signature. Seeded with every
// benchmark annotation.
func FuzzParseAnnotation(f *testing.F) {
	for _, qs := range [][]workload.BenchQuery{workload.BobQueries(), workload.SynQueries()} {
		for _, bq := range qs {
			f.Add(bq.Annotation)
		}
	}
	f.Add("()") // no filter: String writes filter=""
	schemas := []*schema.Schema{workload.UserVisitsSchema(), workload.SyntheticSchema()}
	f.Fuzz(func(t *testing.T, ann string) {
		for _, s := range schemas {
			var q *query.Query
			var err error
			fuzzcheck.BoundedAlloc(t, len(ann), func() { q, err = query.ParseAnnotation(s, ann) })
			if err != nil {
				continue
			}
			again, err := query.ParseAnnotation(s, q.String())
			if err != nil {
				t.Fatalf("%q parses, its String form %q does not: %v", ann, q.String(), err)
			}
			if again.Signature() != q.Signature() {
				t.Fatalf("%q reparses from %q as %s, want %s", ann, q.String(), again.Signature(), q.Signature())
			}
		}
	})
}
