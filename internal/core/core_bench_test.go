package core

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/hadoop"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/trojan"
	"repro/internal/workload"
)

func mustParse(ann string) (*query.Query, error) {
	return query.ParseAnnotation(workload.UserVisitsSchema(), ann)
}

// benchFixture uploads once and is shared by the read benchmarks.
type benchFixtureT struct {
	cluster *hdfs.Cluster
	sum     UploadSummary
}

var benchFix *benchFixtureT

func getBenchFixture(b *testing.B) *benchFixtureT {
	b.Helper()
	if benchFix != nil {
		return benchFix
	}
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.UserVisitsSchema(),
			SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
			BlockSize:   1 << 21,
		},
	}
	lines := workload.GenerateUserVisits(100_000, 7, workload.UserVisitsOptions{})
	sum, err := client.Upload("/uv", lines)
	if err != nil {
		b.Fatal(err)
	}
	benchFix = &benchFixtureT{cluster: cluster, sum: sum}
	return benchFix
}

// bobLayout is the benchmark ledger's upload configuration (bench/fixture.go):
// three replicas clustered on sourceIP, visitDate and adRevenue, 2 MiB blocks.
func bobLayout() LayoutConfig {
	return LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVSourceIP, workload.UVVisitDate, workload.UVAdRevenue},
		BlockSize:   2 << 20,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkUploadBob is the ledger's upload op outside bench/: a fresh
// 4-node cluster and one Upload of 100k generated lines with Bob's layout
// (5k under -short, for CI's -benchtime=1x lane). `make profile-upload`
// profiles it. Besides ns/op it reports cpu-ms/op, the CPU time of every
// core: the upload builds replicas on one core while it parses on
// another, so ns/op falls when work moves to the second core and cpu-ms/op
// only when there is less of it.
func BenchmarkUploadBob(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	lines := workload.GenerateUserVisits(n, 1, workload.UserVisitsOptions{NeedleEvery: 25_000, BadEvery: 10_007})
	var textBytes int64
	for _, l := range lines {
		textBytes += int64(len(l) + 1)
	}
	b.SetBytes(textBytes)
	b.ReportAllocs()
	cpu := cpuTime(b)
	for b.Loop() {
		cluster, err := hdfs.NewCluster(4)
		if err != nil {
			b.Fatal(err)
		}
		client := &Client{Cluster: cluster, Config: bobLayout()}
		if _, err := client.Upload("/uv", lines); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu)/1e6/float64(b.N), "cpu-ms/op")
}

// BenchmarkUploadPlain is BenchmarkUploadBob's denominator: the same lines,
// block size, replication and fresh 4-node cluster, uploaded as plain text
// by hadoop.Uploader, byte-identical replicas and no parse, sort or index.
// upload ÷ plain, in wall time, CPU and bytes, is what HAIL's three sorted,
// indexed replicas cost over an HDFS upload.
func BenchmarkUploadPlain(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	lines := workload.GenerateUserVisits(n, 1, workload.UserVisitsOptions{NeedleEvery: 25_000, BadEvery: 10_007})
	var textBytes int64
	for _, l := range lines {
		textBytes += int64(len(l) + 1)
	}
	layout := bobLayout()
	b.SetBytes(textBytes)
	b.ReportAllocs()
	cpu := cpuTime(b)
	for b.Loop() {
		cluster, err := hdfs.NewCluster(4)
		if err != nil {
			b.Fatal(err)
		}
		up := &hadoop.Uploader{Cluster: cluster, BlockSize: layout.BlockSize, Replication: layout.Replication()}
		if _, err := up.Upload("/uv", lines); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu)/1e6/float64(b.N), "cpu-ms/op")
}

// BenchmarkBuildIndexedReplica is the per-replica transform on one 2 MiB
// block of the same lines, by the type of the sort column.
func BenchmarkBuildIndexedReplica(b *testing.B) {
	paxData := userVisitsPax(b, workload.GenerateUserVisits(14_000, 1, workload.UserVisitsOptions{NeedleEvery: 25_000, BadEvery: 10_007}))
	for _, tc := range []struct {
		name string
		col  int
	}{
		{"string", workload.UVSourceIP},
		{"date", workload.UVVisitDate},
		{"float64", workload.UVAdRevenue},
		{"int32", workload.UVDuration},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(paxData)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := BuildIndexedReplica(paxData, tc.col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchQuery(b *testing.B, annotation string, splitting bool) {
	f := getBenchFixture(b)
	q, err := mustParse(annotation)
	if err != nil {
		b.Fatal(err)
	}
	e := &mapred.Engine{Cluster: f.cluster}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(&mapred.Job{
			Name: "bench", File: "/uv",
			Input:    &InputFormat{Cluster: f.cluster, Query: q, Splitting: splitting},
			MapBatch: func(*mapred.Batch, mapred.Emit) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkIndexScanQuery(b *testing.B) {
	benchQuery(b, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`, false)
}

func BenchmarkIndexScanQueryWithSplitting(b *testing.B) {
	benchQuery(b, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`, true)
}

func BenchmarkFullScanQuery(b *testing.B) {
	// Filter on duration — never indexed — forces the PAX column scan.
	benchQuery(b, `@HailQuery(filter="@9 between(1,100)", projection={@1})`, false)
}

// scanLines generates the scan fixtures' n lines (short under -short), the
// sourceIP needle planted every 25,000 and a bad record every 10,007.
func scanLines(n, short int) []string {
	needle := 25_000
	if testing.Short() {
		n, needle = short, short // a short fixture still plants the needle once
	}
	return workload.GenerateUserVisits(n, 1, workload.UserVisitsOptions{NeedleEvery: needle, BadEvery: 10_007})
}

// uploadBob uploads scanLines(n, short) to a fresh 4-node cluster with
// Bob's layout at the given block size.
func uploadBob(b testing.TB, n, short, blockSize int) *hdfs.Cluster {
	b.Helper()
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bobLayout()
	cfg.BlockSize = blockSize
	if _, err := (&Client{Cluster: cluster, Config: cfg}).Upload("/uv", scanLines(n, short)); err != nil {
		b.Fatal(err)
	}
	return cluster
}

// bobFix is the ledger's scan fixture outside bench/: 200k generated
// lines (5k under -short) uploaded with Bob's layout, shared by the
// passthrough and hot-job benchmarks.
var bobFix *hdfs.Cluster

func getBobFix(b testing.TB) *hdfs.Cluster {
	if bobFix == nil {
		bobFix = uploadBob(b, 200_000, 5_000, 2<<20)
	}
	return bobFix
}

// benchPassthrough runs one passthrough job per op, cycling through the
// annotations; every job must return output.
func benchPassthrough(b *testing.B, annotations ...string) {
	benchJobs(b, func(res *mapred.JobResult) error {
		if len(res.Output) == 0 {
			return errors.New("no output")
		}
		return nil
	}, annotations...)
}

// benchJobs runs one passthrough job per op over Bob's 200k-line fixture,
// cycling through the annotations, and holds every result to check.
func benchJobs(b *testing.B, check func(*mapred.JobResult) error, annotations ...string) {
	cluster := getBobFix(b)
	qs := make([]*query.Query, len(annotations))
	for i, ann := range annotations {
		q, err := mustParse(ann)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := e.Run(&mapred.Job{
			Name: "bench", File: "/uv",
			Input:    &InputFormat{Cluster: cluster, Query: qs[i%len(qs)]},
			MapBatch: workload.PassthroughMapBatch,
		})
		if err == nil {
			err = check(res)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideScanPassthrough and BenchmarkIndexScanPassthrough are the
// ledger's two scan ops as users run them — the passthrough map, so
// decode, format, emit and output assembly are all in the
// profile (the benchmarks above map to nothing). `make profile-scan`
// profiles them.
func BenchmarkWideScanPassthrough(b *testing.B) {
	benchPassthrough(b, wideQ)
}

// BenchmarkIndexScanPassthrough cycles through the ledger's three
// index-scan shapes, as bench/'s index-scan list does: one-year visitDate
// windows projecting @1 (Bob-Q1's shape), width-9 adRevenue ranges
// projecting {@8,@9,@4} (Bob-Q4's) and the sourceIP needle (Bob-Q2).
// Every op is an index scan of every block; one op is one job.
func BenchmarkIndexScanPassthrough(b *testing.B) {
	var qs []string
	for _, year := range []int{1975, 1983, 1991, 1999} {
		qs = append(qs, fmt.Sprintf(`@HailQuery(filter="@3 between(%d-01-01,%d-01-01)", projection={@1})`, year, year+1))
	}
	for _, lo := range []int{10, 130, 250, 370} {
		qs = append(qs, fmt.Sprintf(`@HailQuery(filter="@4 between(%d,%d)", projection={@8,@9,@4})`, lo, lo+9))
	}
	benchPassthrough(b, append(qs, `@HailQuery(filter="@1 = `+workload.NeedleIP+`", projection={@8,@9,@4})`)...)
}

// BenchmarkIndexScanOpen is an index scan's fixed cost per block: the
// three shapes of BenchmarkIndexScanPassthrough with windows below the
// data, so every block is planned, opened — replica view, frame and PAX
// headers, the index — and ruled out by its index. No column byte is read
// and no row formatted; what a job still emits is the bad records, which
// pass through whatever the access path.
func BenchmarkIndexScanOpen(b *testing.B) {
	benchJobs(b, func(res *mapred.JobResult) error {
		if st := res.TotalStats(); st.Blocks == 0 || st.IndexScans != st.Blocks || st.RowsScanned != 0 {
			return fmt.Errorf("%d blocks, %d index scans, %d rows scanned; want every block ruled out by its index",
				st.Blocks, st.IndexScans, st.RowsScanned)
		}
		return nil
	},
		`@HailQuery(filter="@3 between(1900-01-01,1901-01-01)", projection={@1})`,
		`@HailQuery(filter="@4 between(-20,-11)", projection={@8,@9,@4})`,
		`@HailQuery(filter="@1 = 0.0.0.0", projection={@8,@9,@4})`)
}

// baselineFix holds bobFix's lines for the two baselines, on one 4-node
// cluster with the same block size and replication: as plain text under
// /text (Hadoop), and converted by Hadoop++ under /trojan with its one
// index on visitDate, the attribute Bob-Q1 filters on.
var baselineFix *trojan.System

func getBaselineFix(tb testing.TB) *trojan.System {
	if baselineFix != nil {
		return baselineFix
	}
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		tb.Fatal(err)
	}
	layout, lines := bobLayout(), scanLines(200_000, 5_000)
	up := &hadoop.Uploader{Cluster: cluster, BlockSize: layout.BlockSize, Replication: layout.Replication()}
	if _, err := up.Upload("/text", lines); err != nil {
		tb.Fatal(err)
	}
	sys := &trojan.System{
		Cluster: cluster, Schema: layout.Schema, BlockSize: layout.BlockSize,
		Replication: layout.Replication(), IndexColumn: workload.UVVisitDate,
	}
	if _, err := sys.Upload("/trojan", lines); err != nil {
		tb.Fatal(err)
	}
	baselineFix = sys
	return sys
}

// bobQ1 returns Bob-Q1 (one year of visitDate, projecting sourceIP; §6.2)
// on one system over the 200k-line fixture: its cluster, and a function
// that returns a fresh job. HAIL and Hadoop++ read the annotation and map
// with the passthrough; Hadoop's map splits and filters every line itself
// (hadoop.Map).
func bobQ1(tb testing.TB, system string) (*hdfs.Cluster, func() *mapred.Job) {
	q := workload.BobQueries()[0].Query
	switch system {
	case "hail":
		cluster := getBobFix(tb)
		return cluster, func() *mapred.Job {
			return &mapred.Job{Name: "Bob-Q1", File: "/uv", Input: &InputFormat{Cluster: cluster, Query: q}, MapBatch: workload.PassthroughMapBatch}
		}
	case "hadoop":
		sys := getBaselineFix(tb)
		return sys.Cluster, func() *mapred.Job {
			return &mapred.Job{Name: "Bob-Q1", File: "/text", Input: &hadoop.TextInputFormat{Cluster: sys.Cluster}, MapBatch: hadoop.Map(sys.Schema, q)}
		}
	case "trojan":
		sys := getBaselineFix(tb)
		return sys.Cluster, func() *mapred.Job {
			return &mapred.Job{Name: "Bob-Q1", File: "/trojan", Input: &trojan.InputFormat{System: sys, Query: q}, MapBatch: workload.PassthroughMapBatch}
		}
	}
	tb.Fatalf("no system %q", system)
	return nil, nil
}

// benchBobQ1 runs Bob-Q1 on one system, one job per op at Parallelism 1,
// and reports cpu-ms/op beside ns/op.
func benchBobQ1(b *testing.B, system string) {
	cluster, job := bobQ1(b, system)
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	b.ReportAllocs()
	cpu := cpuTime(b)
	for b.Loop() {
		res, err := e.Run(job())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Output) == 0 {
			b.Fatal("no output")
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu)/1e6/float64(b.N), "cpu-ms/op")
}

// BenchmarkHadoopScanBobQ1 and BenchmarkTrojanScanBobQ1 are the paper's
// two baselines (§6.4) answering Bob-Q1 over the lines
// BenchmarkIndexScanPassthrough's fixture holds: Hadoop scans every block
// and parses every line in its map, Hadoop++ scans its trojan index's
// range of the row-layout blocks. TestPaperClaims divides each by HAIL's
// index scan of the same query.
func BenchmarkHadoopScanBobQ1(b *testing.B) { benchBobQ1(b, "hadoop") }

func BenchmarkTrojanScanBobQ1(b *testing.B) { benchBobQ1(b, "trojan") }

// BenchmarkConjScan is a two-conjunct index scan over two indexed
// attributes: one-year visitDate windows (Bob-Q1's shape, ≈3% of the
// rows) and adRevenue in [1, 100] (Bob-Q5's, ≈20%), projecting @1. The
// planner takes the first conjunct with an indexed replica, so the two
// orders read different runs: date-first searches the date run and
// filters it by revenue with the kernel, revenue-first the other way
// round, over about six times the rows. One op is one passthrough job
// over the 200k-line fixture.
func BenchmarkConjScan(b *testing.B) {
	for _, order := range []string{"date-first", "revenue-first"} {
		b.Run(order, func(b *testing.B) {
			var qs []string
			for _, year := range []int{1975, 1983, 1991, 1999} {
				date := fmt.Sprintf("@3 between(%d-01-01,%d-01-01)", year, year+1)
				filter := date + " and @4 between(1,100)"
				if order == "revenue-first" {
					filter = "@4 between(1,100) and " + date
				}
				qs = append(qs, fmt.Sprintf(`@HailQuery(filter="%s", projection={@1})`, filter))
			}
			benchPassthrough(b, qs...)
		})
	}
}

// wideQ is the ledger's wide-scan query (every row, all attributes);
// selectiveQ a one-month index scan projecting one attribute.
const (
	wideQ      = `@HailQuery(filter="@9 between(1,999)")`
	selectiveQ = `@HailQuery(filter="@3 between(1999-01-01,1999-02-01)", projection={@1})`
)

// cachedJob returns a runner of one cached passthrough job over /uv — the
// way haild wires it: every run gets a
// fresh input format, and the engine hands its split phase the cache's
// packing probe.
func cachedJob(tb testing.TB, cluster *hdfs.Cluster, cache mapred.ResultCache, annotation string, pack bool) func() *mapred.JobResult {
	tb.Helper()
	q, err := mustParse(annotation)
	if err != nil {
		tb.Fatal(err)
	}
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1, Cache: cache}
	return func() *mapred.JobResult {
		in := &InputFormat{Cluster: cluster, Query: q, PackScans: pack}
		res, err := e.Run(&mapred.Job{
			Name: "hot", File: "/uv", Input: in,
			MapBatch: workload.PassthroughMapBatch,
			MapSig:   workload.PassthroughMapSig,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}

// benchHotJob times a fully cached job: one cold and one warm run first, so
// the loop sees only hits. residentMB is what the cache holds afterwards —
// the same packed and unpacked.
func benchHotJob(b *testing.B, cluster *hdfs.Cluster, annotation string, pack bool) {
	cache := qcache.New(1 << 30)
	run := cachedJob(b, cluster, cache, annotation, pack)
	run()
	run()
	b.ReportAllocs()
	for b.Loop() {
		if st := run().TotalStats(); st.Blocks == 0 || st.BlocksFromCache != st.Blocks {
			b.Fatalf("hot job answered %d of %d blocks from the cache", st.BlocksFromCache, st.Blocks)
		}
	}
	b.ReportMetric(float64(cache.Stats().Bytes)/1e6, "residentMB")
}

// smallFix is the many-small-blocks shape: 20k lines (2k under -short) in
// 32 KiB blocks, where a hot job's cost is dispatch and lookups, not rows.
var smallFix *hdfs.Cluster

func benchHotJobShapes(b *testing.B, pack bool) {
	b.Run("wide", func(b *testing.B) { benchHotJob(b, getBobFix(b), wideQ, pack) })
	b.Run("small-blocks", func(b *testing.B) {
		if smallFix == nil {
			smallFix = uploadBob(b, 20_000, 2_000, 32<<10)
		}
		benchHotJob(b, smallFix, selectiveQ, pack)
	})
}

// BenchmarkHotPackedJob and BenchmarkHotUnpackedJob are ROADMAP 1(e)'s
// condition as a committed benchmark: the fully cached job of hailquery
// -cache with and without -pack-scans, on the ledger's 200k-row file (every
// row, all attributes) and on a file of many small blocks (selective).
func BenchmarkHotPackedJob(b *testing.B)   { benchHotJobShapes(b, true) }
func BenchmarkHotUnpackedJob(b *testing.B) { benchHotJobShapes(b, false) }
