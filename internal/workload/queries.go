package workload

import (
	"strconv"
	"strings"

	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
)

// BenchQuery is one benchmark query in all three systems' dialects: a
// HailQuery annotation for HAIL and Hadoop++ (both get pre-filtered,
// pre-projected records), and a hand-written text map function for
// standard Hadoop (which must split and filter every record itself, §4.1).
type BenchQuery struct {
	Name        string
	Annotation  string
	Query       *query.Query
	Selectivity float64 // paper-reported selectivity
	// HadoopMap is the standard-Hadoop map function over raw text lines.
	HadoopMap mapred.MapFunc
}

// PassthroughMap is the row form of the map function for HAIL and
// Hadoop++ jobs: records arrive filtered and projected, so it just emits
// them (§4.1's two-line HAIL map function). Bad records are counted but not emitted, as Bob's
// queries only concern well-formed rows.
func PassthroughMap(r mapred.Record, emit mapred.Emit) {
	if r.Bad {
		return
	}
	emit(r.Row.Line(','), "")
}

// PassthroughMapBatch is PassthroughMap in batch form: a job that sets it
// (alone or beside Map) maps the record reader's batches whole, with no
// record materialized. The rows are formatted once per batch, from the
// column bytes (Batch.Lines), and every emitted key is a substring of
// that one text — no row is boxed and nothing is allocated per row. The
// output is byte-identical to PassthroughMap's and the two share
// PassthroughMapSig.
func PassthroughMapBatch(b *mapred.Batch, emit mapred.Emit) {
	text, ends := b.Lines(',')
	from := int32(0)
	for _, to := range ends {
		emit(text[from:to], "")
		from = to
	}
}

// PassthroughMapSig is PassthroughMap's stable identity for
// mapred.Job.MapSig — every job that uses PassthroughMap must use this
// signature so their cached block results interchange.
const PassthroughMapSig = "workload.Passthrough"

// mustQuery parses an annotation against a schema, panicking on error —
// these are static benchmark definitions.
func mustQuery(s *schema.Schema, ann string) *query.Query {
	q, err := query.ParseAnnotation(s, ann)
	if err != nil {
		panic(err)
	}
	return q
}

// BobQueries returns Bob's UserVisits workload (§6.2).
func BobQueries() []BenchQuery {
	s := UserVisitsSchema()
	return []BenchQuery{
		{
			Name:        "Bob-Q1",
			Annotation:  `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`,
			Query:       mustQuery(s, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`),
			Selectivity: 3.1e-2,
			HadoopMap: func(r mapred.Record, emit mapred.Emit) {
				f := strings.Split(r.Raw, ",")
				if len(f) != 9 {
					return
				}
				if f[UVVisitDate] >= "1999-01-01" && f[UVVisitDate] <= "2000-01-01" {
					emit(f[UVSourceIP], "")
				}
			},
		},
		{
			Name:        "Bob-Q2",
			Annotation:  `@HailQuery(filter="@1 = ` + NeedleIP + `", projection={@8,@9,@4})`,
			Query:       mustQuery(s, `@HailQuery(filter="@1 = `+NeedleIP+`", projection={@8,@9,@4})`),
			Selectivity: 3.2e-8,
			HadoopMap: func(r mapred.Record, emit mapred.Emit) {
				f := strings.Split(r.Raw, ",")
				if len(f) != 9 {
					return
				}
				if f[UVSourceIP] == NeedleIP {
					emit(f[UVSearchWord]+","+f[UVDuration]+","+f[UVAdRevenue], "")
				}
			},
		},
		{
			Name: "Bob-Q3",
			Annotation: `@HailQuery(filter="@1 = ` + NeedleIP + ` and @3 = ` + NeedleDate +
				`", projection={@8,@9,@4})`,
			Query: mustQuery(s, `@HailQuery(filter="@1 = `+NeedleIP+` and @3 = `+NeedleDate+
				`", projection={@8,@9,@4})`),
			Selectivity: 6e-9,
			HadoopMap: func(r mapred.Record, emit mapred.Emit) {
				f := strings.Split(r.Raw, ",")
				if len(f) != 9 {
					return
				}
				if f[UVSourceIP] == NeedleIP && f[UVVisitDate] == NeedleDate {
					emit(f[UVSearchWord]+","+f[UVDuration]+","+f[UVAdRevenue], "")
				}
			},
		},
		{
			Name:        "Bob-Q4",
			Annotation:  `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`,
			Query:       mustQuery(s, `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`),
			Selectivity: 1.7e-2,
			HadoopMap:   adRevenueRangeMap(1, 10),
		},
		{
			Name:        "Bob-Q5",
			Annotation:  `@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`,
			Query:       mustQuery(s, `@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`),
			Selectivity: 2.04e-1,
			HadoopMap:   adRevenueRangeMap(1, 100),
		},
	}
}

func adRevenueRangeMap(lo, hi float64) mapred.MapFunc {
	return func(r mapred.Record, emit mapred.Emit) {
		f := strings.Split(r.Raw, ",")
		if len(f) != 9 {
			return
		}
		rev, err := strconv.ParseFloat(f[UVAdRevenue], 64)
		if err != nil || rev < lo || rev > hi {
			return
		}
		emit(f[UVSearchWord]+","+f[UVDuration]+","+f[UVAdRevenue], "")
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
		projIdx := make([]int, width)
		for i := 0; i < width; i++ {
			proj[i] = "@" + strconv.Itoa(i+1)
			projIdx[i] = i
		}
		ann := `@HailQuery(filter="@1 between(0,` + strconv.Itoa(hiVal) + `)", projection={` +
			strings.Join(proj, ",") + `})`
		hi := hiVal
		return BenchQuery{
			Name:        name,
			Annotation:  ann,
			Query:       mustQuery(s, ann),
			Selectivity: sel,
			HadoopMap: func(r mapred.Record, emit mapred.Emit) {
				f := strings.Split(r.Raw, ",")
				if len(f) != SynNumAttrs {
					return
				}
				v, err := strconv.Atoi(f[0])
				if err != nil || v < 0 || v > hi {
					return
				}
				emit(strings.Join(f[:width], ","), "")
			},
		}
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
