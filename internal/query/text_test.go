package query

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
)

// batchPath answers the query over lines the way HAIL does: the upload
// parser, one vector per attribute, the selection kernels and the batch
// formatter. rows[i] is what line i selects, ok[i] whether it selects one.
func batchPath(t *testing.T, s *schema.Schema, q *Query, lines []string) (rows []string, ok []bool) {
	t.Helper()
	parser := schema.NewParser(s)
	vecs := make([]*schema.Vector, s.NumFields())
	for c := range vecs {
		vecs[c] = schema.NewVector(s.Field(c).Type)
	}
	var good []int // the line of each parsed row
	for i, line := range lines {
		row, err := parser.ParseLine(line)
		if err != nil {
			continue
		}
		for c, v := range row {
			vecs[c].Append(v)
		}
		good = append(good, i)
	}
	rows, ok = make([]string, len(lines)), make([]bool, len(lines))
	for _, r := range q.MatchesBatch(func(c int) *schema.Vector { return vecs[c] }, MakeSelection(nil, len(good))) {
		var b []byte
		for j, c := range q.ProjectionOrAll(s) {
			if j > 0 {
				b = append(b, ',')
			}
			b = vecs[c].AppendText(b, int(r))
		}
		rows[good[r]], ok[good[r]] = string(b), true
	}
	return rows, ok
}

// checkAgainstBatchPath fails t where EvalText and the batch path disagree
// on a line.
func checkAgainstBatchPath(t *testing.T, s *schema.Schema, q *Query, lines []string) {
	t.Helper()
	rows, ok := batchPath(t, s, q, lines)
	for i, line := range lines {
		if got, gotOK := q.EvalText(s, line); got != rows[i] || gotOK != ok[i] {
			t.Fatalf("schema %s, query %s, line %q: EvalText = %q, %v; batch path %q, %v", s, q, line, got, gotOK, rows[i], ok[i])
		}
	}
}

// The lines on which a hand-written text map once disagreed with HAIL's
// parser, the inclusive ends of Bob-Q4's and Bob-Q5's adRevenue ranges, and
// a trailing String attribute holding the separator.
var textCases = []struct {
	schema     *schema.Schema
	annotation string
	line       string
	want       string // "" when the line selects no row
}{
	{userVisits, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`,
		"1.2.3.4,http://x/,1999-02-30,5.5,agent,DEU,de-DE,word,42", ""},
	{userVisits, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`,
		"1.2.3.4,http://x/,1999-06-15,5.5,agent,DEU,de-DE,wo\x00rd,42", ""},
	{userVisits, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`,
		"1.2.3.4,http://x/,1999-06-15,5.5,agent,DEU,de-DE,word,42", "1.2.3.4"},
	{userVisits, `@HailQuery(filter="@1 = 172.101.11.46", projection={@8,@9,@4})`,
		"172.101.11.46,http://x/,1992-12-22,5.5,agent,DEU,de-DE,word,abc", ""},
	{userVisits, `@HailQuery(filter="@1 = 172.101.11.46", projection={@8,@9,@4})`,
		"172.101.11.46,http://x/,1992-12-22,5.50,agent,DEU,de-DE,word,042", "word,42,5.5"},
	{userVisits, `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,0.9,agent,DEU,de-DE,word,42", ""},
	{userVisits, `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,1,agent,DEU,de-DE,word,42", "word,42,1"},
	{userVisits, `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,10,agent,DEU,de-DE,word,42", "word,42,10"},
	{userVisits, `@HailQuery(filter="@4 between(1,10)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,10.1,agent,DEU,de-DE,word,42", ""},
	{userVisits, `@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,100,agent,DEU,de-DE,word,42", "word,42,100"},
	{userVisits, `@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,100.1,agent,DEU,de-DE,word,42", ""},
	{userVisits, `@HailQuery(filter="@4 between(1,100)", projection={@8,@9,@4})`,
		"1.2.3.4,http://x/,1999-06-15,NaN,agent,DEU,de-DE,word,42", ""},
	{userVisits, `@HailQuery(projection={@9})`,
		"1.2.3.4,http://x/,1999-06-15,5.5,agent,DEU,de-DE,word,42,extra", ""},
	{schema.MustNew(schema.Field{Name: "n", Type: schema.Int32}, schema.Field{Name: "note", Type: schema.String}),
		`@HailQuery(filter="@1 between(5,9)", projection={@2,@1})`, "07,late, but fine", "late, but fine,7"},
}

func TestEvalTextCases(t *testing.T) {
	for _, tc := range textCases {
		q, err := ParseAnnotation(tc.schema, tc.annotation)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := q.EvalText(tc.schema, tc.line); got != tc.want || ok != (tc.want != "") {
			t.Errorf("%s over %q: %q, %v; want %q", tc.annotation, tc.line, got, ok, tc.want)
		}
		checkAgainstBatchPath(t, tc.schema, q, []string{tc.line})
	}
}

// TestEvalTextMatchesBatchPath holds EvalText equal to the batch path on
// random schemas, rows, bad lines and queries.
func TestEvalTextMatchesBatchPath(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	spoil := []string{"", "abc", "1999-02-30", "NaN", "+", "0x10", "1e400", "\x00"}
	for trial := 0; trial < 300; trial++ {
		fields := make([]schema.Field, 1+rng.Intn(5))
		for c := range fields {
			fields[c] = schema.Field{Name: string(rune('a' + c)), Type: propTypes[rng.Intn(len(propTypes))]}
		}
		s := schema.MustNew(fields...)
		lines := make([]string, 40)
		for i := range lines {
			vals := make([]string, len(fields))
			for c, f := range fields {
				vals[c] = randValue(rng, f.Type).String()
			}
			switch rng.Intn(8) {
			case 0: // a value that does not parse, or a NUL byte
				c := rng.Intn(len(vals))
				vals[c] += spoil[rng.Intn(len(spoil))]
			case 1: // one field too many or too few
				if rng.Intn(2) == 0 {
					vals = append(vals, "x")
				} else {
					vals = vals[1:]
				}
			}
			lines[i] = strings.Join(vals, ",")
		}
		q := &Query{}
		for k := rng.Intn(4); k > 0; k-- {
			c := rng.Intn(len(fields))
			q.Filter = append(q.Filter, randPredicate(rng, c, fields[c].Type))
		}
		for k := rng.Intn(len(fields) + 1); k > 0; k-- {
			q.Projection = append(q.Projection, rng.Intn(len(fields)))
		}
		checkAgainstBatchPath(t, s, q, lines)
	}
}
