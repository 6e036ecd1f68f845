package schema

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// Parsing text rows to typed binary is the HAIL client's main CPU cost at
// upload (§3.1); the sim package's ParseMBps constant abstracts this rate.
func BenchmarkParseLine(b *testing.B) {
	s := MustNew(
		Field{"sourceIP", String}, Field{"destURL", String}, Field{"visitDate", Date},
		Field{"adRevenue", Float64}, Field{"userAgent", String}, Field{"countryCode", String},
		Field{"languageCode", String}, Field{"searchWord", String}, Field{"duration", Int32},
	)
	p := NewParser(s)
	const line = "172.101.11.46,http://index.example.com/DEU/page-4711,1999-06-15,42.5,Mozilla/5.0 (X11; Linux x86_64),DEU,de-DE,elephant,371"
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueCompare(b *testing.B) {
	x, y := StringVal("alpha"), StringVal("alphb")
	for i := 0; i < b.N; i++ {
		if x.Compare(y) >= 0 {
			b.Fatal("bad compare")
		}
	}
}

func BenchmarkRowLine(b *testing.B) {
	s := MustNew(Field{"a", Int32}, Field{"b", Float64}, Field{"c", String}, Field{"d", Date})
	p := NewParser(s)
	row, err := p.ParseLine("42,3.5,hello,1999-01-01")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = row.Line(',')
	}
}

// BenchmarkAppendFloat: the float formatter against strconv's shortest
// formatting on the values a scan prints — the generator's one-decimal
// adRevenue — and on values one ulp off a short decimal, which take the
// whole fast-path search and then strconv.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	short, long := make([]float64, 1024), make([]float64, 1024)
	for i := range short {
		short[i] = float64(rng.Intn(10_000)) / 10
		long[i] = math.Nextafter(short[i]+0.1, math.Inf(1))
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{{"one-decimal", short}, {"ulp-off", long}} {
		buf := make([]byte, 0, 32)
		b.Run(c.name+"/strconv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = strconv.AppendFloat(buf[:0], c.vals[i%len(c.vals)], 'g', -1, 64)
			}
		})
		b.Run(c.name+"/AppendFloat", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = AppendFloat(buf[:0], c.vals[i%len(c.vals)])
			}
		})
	}
}
