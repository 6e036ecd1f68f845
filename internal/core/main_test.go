package core

import (
	"flag"
	"os"
	"testing"

	"repro/internal/workload"
)

// TestMain generates the upload benchmarks' lines before the run starts
// when benchmarks are asked for: a CPU profile covers the whole run, so
// `make profile-upload`'s then holds the upload, not the generator.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() != "" {
		uploadLines()
	}
	os.Exit(m.Run())
}

// uploadLinesCache holds uploadLines' lines, generated once per process.
var uploadLinesCache []string

// uploadLines is the upload benchmarks' input: 100k generated lines (5k
// under -short), the sourceIP needle every 25,000 and a bad record every
// 10,007.
func uploadLines() []string {
	if uploadLinesCache == nil {
		n := 100_000
		if testing.Short() {
			n = 5_000
		}
		uploadLinesCache = workload.GenerateUserVisits(n, 1, workload.UserVisitsOptions{NeedleEvery: 25_000, BadEvery: 10_007})
	}
	return uploadLinesCache
}
