// Weblog: Bob's exploratory log-analysis session from the paper's
// introduction, end to end. Bob uploads a UserVisits web log once; HAIL
// stores every block in three sort orders with three clustered indexes
// (visitDate, sourceIP, adRevenue). He then "strolls around": each of his
// five ad-hoc queries filters on a different attribute, and each finds a
// suitable index on some replica.
//
// The example contrasts HAIL with a plain full-scan baseline over the same
// data and reports real I/O statistics for both.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

func main() {
	cluster, err := hdfs.NewCluster(10)
	if err != nil {
		log.Fatal(err)
	}

	// Generate a web log with a few "strange requests" from the needle IP
	// Bob will notice (paper §1: sourceIP 134.96.223.160 — we plant the
	// benchmark's 172.101.11.46).
	lines := workload.GenerateUserVisits(120_000, 7, workload.UserVisitsOptions{
		NeedleEvery: 10_000,
	})

	client := &core.Client{
		Cluster: cluster,
		Config: core.LayoutConfig{
			Schema: workload.UserVisitsSchema(),
			SortColumns: []int{
				workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue,
			},
			BlockSize: 1 << 21, // ~2 MB text blocks
		},
	}
	sum, err := client.Upload("/logs/uservisits", lines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %d rows as %d blocks (%.1f MB text → %.1f MB PAX per copy)\n",
		sum.Rows, sum.Blocks, float64(sum.TextBytes)/1e6, float64(sum.PaxBytes)/1e6)

	// Only row counts are printed, so the jobs stream to no consumer.
	engine := &mapred.Engine{Cluster: cluster}
	ctx := context.Background()
	for _, bq := range workload.BobQueries() {
		// HAIL: index scan via the annotation, HailSplitting on.
		hailRes, err := engine.Stream(ctx, &mapred.Job{
			Name: bq.Name, File: "/logs/uservisits",
			Input: &core.InputFormat{Cluster: cluster, Query: bq.Query, Splitting: true},
		}, nil)
		if err != nil {
			log.Fatalf("%s: %v", bq.Name, err)
		}
		// Baseline: the same logical query as a full PAX scan (no filter
		// pushed down, filtering in the map function). With no projection
		// a batch holds every attribute, in schema order, so the query's
		// own kernels run over the batch's vectors (MatchesBatch).
		scanRes, err := engine.Stream(ctx, &mapred.Job{
			Name: bq.Name + "-scan", File: "/logs/uservisits",
			Input: &core.InputFormat{Cluster: cluster},
			MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
				col := func(c int) *schema.Vector { return b.Cols[c] }
				for range bq.Query.MatchesBatch(col, query.MakeSelection(nil, b.Rows)) {
					out.Emit("match", "")
				}
			},
		}, nil)
		if err != nil {
			log.Fatalf("%s scan: %v", bq.Name, err)
		}

		h, s := hailRes.TotalStats(), scanRes.TotalStats()
		// Results must agree between access paths.
		if hailRes.Rows != scanRes.Rows {
			log.Fatalf("%s: index scan returned %d rows, full scan matched %d",
				bq.Name, hailRes.Rows, scanRes.Rows)
		}
		fmt.Printf("%-7s %7d result rows | HAIL: %2d tasks, %5.1f MB read, %d index scans | full scan: %5.1f MB read (%4.1fx more I/O)\n",
			bq.Name, hailRes.Rows, len(hailRes.Tasks),
			float64(h.BytesRead)/1e6, h.IndexScans,
			float64(s.BytesRead)/1e6, float64(s.BytesRead)/float64(max64(h.BytesRead, 1)))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
