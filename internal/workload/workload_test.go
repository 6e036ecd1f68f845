package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestUserVisitsSchemaShape(t *testing.T) {
	s := UserVisitsSchema()
	if s.NumFields() != 9 {
		t.Fatalf("UserVisits has %d fields, want 9", s.NumFields())
	}
	// Positions used by the paper's annotations.
	checks := map[int]struct {
		name string
		typ  schema.Type
	}{
		UVSourceIP:  {"sourceIP", schema.String},
		UVVisitDate: {"visitDate", schema.Date},
		UVAdRevenue: {"adRevenue", schema.Float64},
		UVDuration:  {"duration", schema.Int32},
	}
	for pos, want := range checks {
		f := s.Field(pos)
		if f.Name != want.name || f.Type != want.typ {
			t.Errorf("field %d = %v, want %v", pos, f, want)
		}
	}
}

func TestUserVisitsParseable(t *testing.T) {
	lines := GenerateUserVisits(5000, 7, UserVisitsOptions{})
	p := schema.NewParser(UserVisitsSchema())
	for i, l := range lines {
		if _, err := p.ParseLine(l); err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
	}
}

func TestUserVisitsDeterministic(t *testing.T) {
	a := GenerateUserVisits(1000, 3, UserVisitsOptions{NeedleEvery: 100})
	b := GenerateUserVisits(1000, 3, UserVisitsOptions{NeedleEvery: 100})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at line %d", i)
		}
	}
	c := GenerateUserVisits(1000, 4, UserVisitsOptions{NeedleEvery: 100})
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 20 {
		t.Errorf("different seeds produced %d identical lines", same)
	}
}

func selectivityOf(t *testing.T, lines []string, match func(schema.Row) bool) float64 {
	t.Helper()
	p := schema.NewParser(UserVisitsSchema())
	n, hits := 0, 0
	for _, l := range lines {
		row, err := p.ParseLine(l)
		if err != nil {
			continue
		}
		n++
		if match(row) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

func TestBobSelectivities(t *testing.T) {
	lines := GenerateUserVisits(120000, 11, UserVisitsOptions{})
	lo99, hi00 := schema.MustDate("1999-01-01"), schema.MustDate("2000-01-01")

	q1 := selectivityOf(t, lines, func(r schema.Row) bool {
		d := r[UVVisitDate].Days()
		return d >= lo99 && d <= hi00
	})
	if math.Abs(q1-3.1e-2) > 0.7e-2 {
		t.Errorf("Bob-Q1 selectivity = %.4f, want ≈0.031", q1)
	}
	q4 := selectivityOf(t, lines, func(r schema.Row) bool {
		v := r[UVAdRevenue].Float()
		return v >= 1 && v <= 10
	})
	if math.Abs(q4-1.8e-2) > 0.6e-2 {
		t.Errorf("Bob-Q4 selectivity = %.4f, want ≈0.018", q4)
	}
	q5 := selectivityOf(t, lines, func(r schema.Row) bool {
		v := r[UVAdRevenue].Float()
		return v >= 1 && v <= 100
	})
	if math.Abs(q5-0.198) > 0.03 {
		t.Errorf("Bob-Q5 selectivity = %.4f, want ≈0.198", q5)
	}
}

func TestNeedlePlanting(t *testing.T) {
	lines := GenerateUserVisits(10000, 13, UserVisitsOptions{NeedleEvery: 1000})
	p := schema.NewParser(UserVisitsSchema())
	needles, withDate := 0, 0
	for _, l := range lines {
		row, err := p.ParseLine(l)
		if err != nil {
			continue
		}
		if row[UVSourceIP].Str() == NeedleIP {
			needles++
			if row[UVVisitDate].Days() == schema.MustDate(NeedleDate) {
				withDate++
			}
		}
	}
	if needles != 10 {
		t.Errorf("planted %d needles, want 10", needles)
	}
	if withDate == 0 || withDate == needles {
		t.Errorf("Bob-Q3 needs a strict subset: %d of %d with the date", withDate, needles)
	}
}

func TestBadRecordInjection(t *testing.T) {
	lines := GenerateUserVisits(1000, 17, UserVisitsOptions{BadEvery: 100})
	p := schema.NewParser(UserVisitsSchema())
	bad := 0
	for _, l := range lines {
		if _, err := p.ParseLine(l); err != nil {
			bad++
		}
	}
	if bad != 10 {
		t.Errorf("%d bad records, want 10", bad)
	}
}

func TestSyntheticShapeAndSelectivity(t *testing.T) {
	s := SyntheticSchema()
	if s.NumFields() != 19 {
		t.Fatalf("Synthetic has %d fields", s.NumFields())
	}
	for i := 0; i < 19; i++ {
		if s.Field(i).Type != schema.Int32 {
			t.Fatalf("field %d is %s, want int32", i, s.Field(i).Type)
		}
	}
	lines := GenerateSynthetic(60000, 19)
	p := schema.NewParser(s)
	n, q1, q2 := 0, 0, 0
	for _, l := range lines {
		row, err := p.ParseLine(l)
		if err != nil {
			t.Fatalf("unparseable synthetic line: %v", err)
		}
		n++
		v := row[0].Int()
		if v <= 99 {
			q1++
		}
		if v <= 9 {
			q2++
		}
	}
	if got := float64(q1) / float64(n); math.Abs(got-0.10) > 0.01 {
		t.Errorf("Syn-Q1 selectivity = %.4f, want 0.10", got)
	}
	if got := float64(q2) / float64(n); math.Abs(got-0.01) > 0.004 {
		t.Errorf("Syn-Q2 selectivity = %.4f, want 0.01", got)
	}
}

func TestSyntheticBinaryRatio(t *testing.T) {
	// §6.3.1: HAIL's upload win on Synthetic comes from the binary PAX
	// representation being roughly half the text size (paper: 420 GB for
	// 6 binary replicas of a dataset whose 3 text replicas need 390 GB,
	// i.e. binary ≈ 0.54 × text).
	lines := GenerateSynthetic(20000, 23)
	var textBytes int64
	for _, l := range lines {
		textBytes += int64(len(l) + 1)
	}
	binBytes := int64(20000 * 19 * 4) // packed int32 columns
	ratio := float64(binBytes) / float64(textBytes)
	if ratio < 0.45 || ratio > 0.65 {
		t.Errorf("binary/text ratio = %.3f, want ≈0.54", ratio)
	}
}

func TestQueriesParseAgainstSchemas(t *testing.T) {
	if got := len(BobQueries()); got != 5 {
		t.Fatalf("BobQueries = %d, want 5", got)
	}
	if got := len(SynQueries()); got != 6 {
		t.Fatalf("SynQueries = %d, want 6", got)
	}
	for _, q := range BobQueries() {
		if err := q.Query.Validate(UserVisitsSchema()); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
	widths := []int{19, 9, 1, 19, 9, 1}
	for i, q := range SynQueries() {
		if err := q.Query.Validate(SyntheticSchema()); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if len(q.Query.Projection) != widths[i] {
			t.Errorf("%s projects %d attrs, want %d", q.Name, len(q.Query.Projection), widths[i])
		}
	}
}

func TestTable1Grid(t *testing.T) {
	// Table 1: the selectivity × projection grid.
	qs := SynQueries()
	wantSel := []float64{0.10, 0.10, 0.10, 0.01, 0.01, 0.01}
	for i, q := range qs {
		if q.Selectivity != wantSel[i] {
			t.Errorf("%s selectivity = %v, want %v", q.Name, q.Selectivity, wantSel[i])
		}
		if !strings.HasPrefix(q.Name, "Syn-Q") {
			t.Errorf("unexpected name %s", q.Name)
		}
	}
}
