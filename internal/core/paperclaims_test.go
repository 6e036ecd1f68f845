package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapred"
)

// TestPaperClaims measures the paper's two headline claims on this tree:
// HAIL's upload costs about what a plain HDFS upload does (§6.3), and its
// index scan answers Bob-Q1 far faster than Hadoop's full scan and
// Hadoop++'s trojan index scan (§6.4). The benchmarks of each comparison
// run alternately — five rounds for the uploads, three for the scans —
// and the median of the rounds' ratios is logged in wall time, CPU and
// allocated MB. Two directional tripwires: HAIL's index scan is at least
// 20× faster than Hadoop's (≈500× measured on a 2-core Xeon), and HAIL's
// upload CPU at most 8× the plain upload's (≈7× there). A breach is a
// finding, not a bound to loosen. Why upload ÷ plain is ≈5–7× here and
// not the paper's ≈1× is in ARCHITECTURE.md. Skipped under -short and
// -race, whose fixtures and runtime measure something else.
func TestPaperClaims(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("measures 100k-line uploads and 200k-line scans; not under -short or -race")
	}
	// The upload pair runs first, on a heap that holds no scan fixture, as
	// the benchmarks do when run alone: a live fixture of a few hundred MB
	// makes every collection the uploads trigger mark it, and that CPU
	// lands on the side that allocates more.
	bobFix, baselineFix = nil, nil
	runtime.GC()
	uploads, uploadRounds := ratios(5, BenchmarkUploadBob, BenchmarkUploadPlain)
	upload := uploads[0]
	defer func() { baselineFix = nil }() // no other test reads it

	var rows [3]int
	for i, system := range []string{"hail", "hadoop", "trojan"} {
		cluster, job := bobQ1(t, system)
		res, err := (&mapred.Engine{Cluster: cluster, Parallelism: 1}).Run(job())
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = len(res.Output)
	}
	if rows[0] == 0 || rows[1] != rows[0] || rows[2] != rows[0] {
		t.Fatalf("Bob-Q1 answers %d rows on HAIL, %d on Hadoop, %d on Hadoop++", rows[0], rows[1], rows[2])
	}
	q1, _ := ratios(3, func(b *testing.B) { benchBobQ1(b, "hail") }, BenchmarkHadoopScanBobQ1, BenchmarkTrojanScanBobQ1)
	hadoopQ1, trojanQ1 := q1[0].inverse(), q1[1].inverse()
	t.Logf("upload ÷ plain:       %s", upload)
	t.Logf("Bob-Q1 hadoop ÷ hail: %s", hadoopQ1)
	t.Logf("Bob-Q1 trojan ÷ hail: %s", trojanQ1)
	if hadoopQ1.wall < 20 {
		t.Errorf("HAIL's index scan of Bob-Q1 is %.1f× Hadoop's full scan, under 20×", hadoopQ1.wall)
	}
	if upload.cpu > 8 {
		// Every round's ratio: a breach that one or two rounds on a
		// loaded host carry reads differently from one every round shows.
		each := make([]string, len(uploadRounds[0]))
		for i, r := range uploadRounds[0] {
			each[i] = fmt.Sprintf("%.2f×", r.cpu)
		}
		t.Errorf("HAIL's upload takes %.2f× the CPU of a plain upload, over 8× (rounds: %s)",
			upload.cpu, strings.Join(each, ", "))
	}
}

// cost is one benchmark's per-op wall time, CPU time (its cpu-ms/op) and
// allocated bytes — or, from ratios, one benchmark's over another's.
type cost struct{ wall, cpu, mb float64 }

func (c cost) inverse() cost { return cost{1 / c.wall, 1 / c.cpu, 1 / c.mb} }

func (c cost) String() string {
	return fmt.Sprintf("wall %.2f×, CPU %.2f×, MB %.2f×", c.wall, c.cpu, c.mb)
}

// ratios runs the benchmarks in turn for the given number of rounds, each
// round starting one further along the list, and divides the first one's
// cost by each other one's in the same round; it returns the median of
// those ratios, per measure and other benchmark, and each round's ratios
// (each[i][round] for other benchmark i). Dividing within a round cancels
// the host's drift, which on a shared box moves a benchmark ±15% between
// one minute and the next.
func ratios(rounds int, fns ...func(*testing.B)) (out []cost, each [][]cost) {
	runs := make([][]cost, rounds)
	for round := range runs {
		runs[round] = make([]cost, len(fns))
		for k := range fns {
			i := (round + k) % len(fns)
			r := testing.Benchmark(fns[i])
			runs[round][i] = cost{float64(r.NsPerOp()), r.Extra["cpu-ms/op"], float64(r.AllocedBytesPerOp())}
		}
	}
	out = make([]cost, len(fns)-1)
	each = make([][]cost, len(fns)-1)
	for i := range out {
		for _, run := range runs {
			each[i] = append(each[i], cost{run[0].wall / run[i+1].wall, run[0].cpu / run[i+1].cpu, run[0].mb / run[i+1].mb})
		}
		median := func(of func(cost) float64) float64 {
			var v []float64
			for _, r := range each[i] {
				v = append(v, of(r))
			}
			slices.Sort(v)
			return v[len(v)/2]
		}
		out[i] = cost{
			wall: median(func(c cost) float64 { return c.wall }),
			cpu:  median(func(c cost) float64 { return c.cpu }),
			mb:   median(func(c cost) float64 { return c.mb }),
		}
	}
	return out, each
}
