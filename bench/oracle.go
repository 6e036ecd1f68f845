package main

import (
	"hash/maphash"
	"strconv"
	"strings"

	"repro/internal/mapred"
	"repro/internal/workload"
)

// The oracle answers every benchmark query from the generated text alone,
// the way a standard-Hadoop map function would (split on ',', compare —
// the shape of workload.BobQueries()[i].HadoopMap). It shares no code
// with the system's parser, PAX decoder or query kernels.

// answer is the expected output of one query: its row count and an
// order-independent hash of the multiset of output rows.
type answer struct {
	count int
	hash  uint64
}

func (a *answer) add(row string) {
	a.count++
	a.hash += maphash.String(hashSeed, row)
}

// hashSeed is per process: expected and observed hashes are only ever
// compared inside one.
var hashSeed = maphash.MakeSeed()

// answerOf hashes a job's output the way the oracle hashes its own.
func answerOf(out []mapred.KV) answer {
	var a answer
	for i := range out {
		a.add(out[i].Key)
	}
	return a
}

// oracle holds the expected answers for one set of generated lines.
type oracle struct {
	goodRows, badRows int
	textBytes         int64
	blocks            int // blocks core.Client.Upload must cut at blockSize
	answers           []answer
	// durPrefix[d] is the number of good rows with duration <= d; it
	// answers every cold filter's row count.
	durPrefix [maxDuration + 1]int
}

// buildOracle evaluates qs over lines in one pass.
func buildOracle(lines []string, qs []benchQuery, blockSize int) *oracle {
	o := &oracle{answers: make([]answer, len(qs))}
	blockText := 0
	for _, line := range lines {
		o.textBytes += int64(len(line) + 1)
		blockText += len(line) + 1
		if blockText >= blockSize {
			o.blocks++
			blockText = 0
		}
		f := strings.Split(line, ",")
		if len(f) != 9 {
			o.badRows++
			continue
		}
		o.goodRows++
		rev, _ := strconv.ParseFloat(f[workload.UVAdRevenue], 64)
		dur, _ := strconv.Atoi(f[workload.UVDuration])
		o.durPrefix[dur]++
		for i := range qs {
			if row, ok := qs[i].evalText(line, f, rev, dur); ok {
				o.answers[i].add(row)
			}
		}
	}
	if blockText > 0 {
		o.blocks++
	}
	for d := 1; d <= maxDuration; d++ {
		o.durPrefix[d] += o.durPrefix[d-1]
	}
	return o
}

// evalText is the text-side evaluator: whether the line qualifies and the
// output row it produces.
func (b *benchQuery) evalText(line string, f []string, rev float64, dur int) (string, bool) {
	switch b.kind {
	case kindDate:
		d := f[workload.UVVisitDate] // ISO dates order as strings
		return f[workload.UVSourceIP], d >= b.loDate && d <= b.hiDate
	case kindRevenue:
		return bobRow(f), rev >= b.loRev && rev <= b.hiRev
	case kindNeedle:
		return bobRow(f), f[workload.UVSourceIP] == workload.NeedleIP
	case kindWide:
		return line, dur >= 1 && dur <= maxDuration
	case kindCold:
		return f[workload.UVSourceIP] + "," + f[workload.UVDuration], dur >= b.loDur && dur <= b.hiDur
	}
	return "", false
}

// bobRow is the {@8,@9,@4} projection.
func bobRow(f []string) string {
	return f[workload.UVSearchWord] + "," + f[workload.UVDuration] + "," + f[workload.UVAdRevenue]
}

// coldCount is the expected row_count of a cold filter.
func (o *oracle) coldCount(b benchQuery) int {
	return o.durPrefix[b.hiDur] - o.durPrefix[b.loDur-1]
}
