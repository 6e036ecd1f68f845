package core

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/query"
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
			Input: &InputFormat{Cluster: f.cluster, Query: q, Splitting: splitting},
			Map:   func(r mapred.Record, emit mapred.Emit) {},
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

// uploadBob uploads n generated lines (short under -short) to a fresh
// 4-node cluster with Bob's layout at the given block size.
func uploadBob(b testing.TB, n, short, blockSize int) *hdfs.Cluster {
	b.Helper()
	needle := 25_000
	if testing.Short() {
		n, needle = short, short // a short fixture still plants the needle once
	}
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bobLayout()
	cfg.BlockSize = blockSize
	lines := workload.GenerateUserVisits(n, 1, workload.UserVisitsOptions{NeedleEvery: needle, BadEvery: 10_007})
	if _, err := (&Client{Cluster: cluster, Config: cfg}).Upload("/uv", lines); err != nil {
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
// annotations.
func benchPassthrough(b *testing.B, annotations ...string) {
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
			Map:      workload.PassthroughMap,
			MapBatch: workload.PassthroughMapBatch,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Output) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkWideScanPassthrough and BenchmarkIndexScanPassthrough are the
// ledger's two scan ops as users run them — the passthrough map in both
// forms, so decode, format, emit and output assembly are all in the
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

// wideQ is the ledger's wide-scan query (every row, all attributes);
// selectiveQ a one-month index scan projecting one attribute.
const (
	wideQ      = `@HailQuery(filter="@9 between(1,999)")`
	selectiveQ = `@HailQuery(filter="@3 between(1999-01-01,1999-02-01)", projection={@1})`
)

// probedCache is what a cached job needs of qcache.Cache: the engine's
// view plus the split phase's packing probe.
type probedCache interface {
	mapred.ResultCache
	CachedReplica(file string, b hdfs.BlockID, gen uint64, query, mapSig string) (hdfs.NodeID, bool)
}

// cachedJob returns a runner of one cached passthrough job over /uv — the
// way hailquery -cache [-pack-scans] and haild wire it: every run gets a
// fresh input format and, when packing, the cache's packing probe.
func cachedJob(tb testing.TB, cluster *hdfs.Cluster, cache probedCache, annotation string, pack bool) func() *mapred.JobResult {
	tb.Helper()
	q, err := mustParse(annotation)
	if err != nil {
		tb.Fatal(err)
	}
	nn := cluster.NameNode()
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1, Cache: cache}
	return func() *mapred.JobResult {
		in := &InputFormat{Cluster: cluster, Query: q, PackScans: pack}
		if pack {
			sig, _ := in.QuerySignature()
			in.CachedReplica = func(blk hdfs.BlockID) (hdfs.NodeID, bool) {
				return cache.CachedReplica("/uv", blk, nn.Generation(blk), sig, workload.PassthroughMapSig)
			}
		}
		res, err := e.Run(&mapred.Job{
			Name: "hot", File: "/uv", Input: in,
			Map:      workload.PassthroughMap,
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
