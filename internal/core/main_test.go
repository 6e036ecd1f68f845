package core

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/workload"
)

// TestMain builds the benchmarks' shared inputs before the run starts when
// -test.bench selects a benchmark that reads them: a CPU profile covers the
// whole run, so `make profile-upload`'s holds the upload, not the line
// generator, and `make profile-scan`'s the scans, not the fixture's
// generation and upload.
func TestMain(m *testing.M) {
	flag.Parse()
	pattern := flag.Lookup("test.bench").Value.String()
	if selectsAny(pattern, "BenchmarkUploadBob", "BenchmarkUploadPlain") {
		uploadLines()
	}
	if selectsAny(pattern, "BenchmarkWideScanPassthrough", "BenchmarkIndexScanPassthrough", "BenchmarkIndexScanOpen",
		"BenchmarkWideScanStream", "BenchmarkIndexScanStream", "BenchmarkConjScan", "BenchmarkHotPackedJob", "BenchmarkHotUnpackedJob") {
		if _, err := bobFixture(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// selectsAny reports whether the -test.bench pattern selects one of the
// named top-level benchmarks: its first '/'-separated element, a regular
// expression, matches the name.
func selectsAny(pattern string, names ...string) bool {
	if pattern == "" {
		return false
	}
	re, err := regexp.Compile(strings.Split(pattern, "/")[0])
	if err != nil {
		return false
	}
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
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

// bobFix is the ledger's scan fixture outside bench/: 200k generated
// lines (5k under -short) uploaded with Bob's layout, shared by the
// passthrough and hot-job benchmarks. bobFixture builds it once per
// process; getBobFix is the same for a test or benchmark.
var bobFix *hdfs.Cluster

func bobFixture() (*hdfs.Cluster, error) {
	if bobFix == nil {
		cluster, err := uploadBob(200_000, 5_000, 2<<20)
		if err != nil {
			return nil, err
		}
		bobFix = cluster
	}
	return bobFix, nil
}

func getBobFix(tb testing.TB) *hdfs.Cluster {
	cluster, err := bobFixture()
	if err != nil {
		tb.Fatal(err)
	}
	return cluster
}
