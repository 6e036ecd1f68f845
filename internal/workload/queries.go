package workload

import (
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/schema"
)

// BenchQuery is one benchmark query: its HailQuery annotation, which HAIL
// and Hadoop++ read to deliver pre-filtered, pre-projected records, and
// from which standard Hadoop's text map function is derived (hadoop.Map:
// it splits and filters every record itself, §4.1).
type BenchQuery struct {
	Name        string
	Annotation  string
	Query       *query.Query
	Selectivity float64 // paper-reported selectivity
}

// benchQuery parses a static benchmark annotation against its schema,
// panicking on error.
func benchQuery(s *schema.Schema, name, ann string, selectivity float64) BenchQuery {
	q, err := query.ParseAnnotation(s, ann)
	if err != nil {
		panic(err)
	}
	return BenchQuery{Name: name, Annotation: ann, Query: q, Selectivity: selectivity}
}

// BobQueries returns Bob's UserVisits workload (§6.2).
func BobQueries() []BenchQuery {
	s := UserVisitsSchema()
	return []BenchQuery{
		benchQuery(s, "Bob-Q1", `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`, 3.1e-2),
		benchQuery(s, "Bob-Q2", `@HailQuery(filter="@1 = `+NeedleIP+`", projection={@8,@9,@4})`, 3.2e-8),
		benchQuery(s, "Bob-Q3", `@HailQuery(filter="@1 = `+NeedleIP+` and @3 = `+NeedleDate+`", projection={@8,@9,@4})`, 6e-9),
		benchQuery(s, "Bob-Q4", `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`, 1.7e-2),
		benchQuery(s, "Bob-Q5", `@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`, 2.04e-1),
	}
}

// SynQueries returns the Synthetic workload of Table 1: the cross product
// of selectivity {0.10, 0.01} and projection width {19, 9, 1}. All six
// filter on attr1, so HAIL's multiple indexes cannot help — the setup the
// paper uses to isolate selectivity effects (§6.2).
func SynQueries() []BenchQuery {
	s := SyntheticSchema()
	mk := func(name string, hiVal int, width int, sel float64) BenchQuery {
		proj := make([]string, width)
		for i := range proj {
			proj[i] = "@" + strconv.Itoa(i+1)
		}
		return benchQuery(s, name, `@HailQuery(filter="@1 between(0,`+strconv.Itoa(hiVal)+`)", projection={`+
			strings.Join(proj, ",")+`})`, sel)
	}
	return []BenchQuery{
		mk("Syn-Q1a", 99, 19, 0.10),
		mk("Syn-Q1b", 99, 9, 0.10),
		mk("Syn-Q1c", 99, 1, 0.10),
		mk("Syn-Q2a", 9, 19, 0.01),
		mk("Syn-Q2b", 9, 9, 0.01),
		mk("Syn-Q2c", 9, 1, 0.01),
	}
}
