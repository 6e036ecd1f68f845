package core

import (
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
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

// BenchmarkUploadBob is the ledger's upload op outside bench/: a fresh
// 4-node cluster and one Upload of 100k generated lines with Bob's layout
// (5k under -short, for CI's -benchtime=1x lane). `make profile-upload`
// profiles it.
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

// bobFix is the ledger's scan fixture outside bench/: 200k generated
// lines (5k under -short) uploaded with Bob's layout, shared by the
// passthrough benchmarks.
var bobFix *hdfs.Cluster

func benchPassthrough(b *testing.B, annotation string) {
	if bobFix == nil {
		n := 200_000
		if testing.Short() {
			n = 5_000
		}
		cluster, err := hdfs.NewCluster(4)
		if err != nil {
			b.Fatal(err)
		}
		lines := workload.GenerateUserVisits(n, 1, workload.UserVisitsOptions{NeedleEvery: 25_000, BadEvery: 10_007})
		if _, err := (&Client{Cluster: cluster, Config: bobLayout()}).Upload("/uv", lines); err != nil {
			b.Fatal(err)
		}
		bobFix = cluster
	}
	q, err := mustParse(annotation)
	if err != nil {
		b.Fatal(err)
	}
	e := &mapred.Engine{Cluster: bobFix, Parallelism: 1}
	b.ReportAllocs()
	for b.Loop() {
		res, err := e.Run(&mapred.Job{
			Name: "bench", File: "/uv",
			Input:    &InputFormat{Cluster: bobFix, Query: q},
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
	benchPassthrough(b, `@HailQuery(filter="@9 between(1,999)")`)
}

func BenchmarkIndexScanPassthrough(b *testing.B) {
	benchPassthrough(b, `@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`)
}
