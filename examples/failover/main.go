// Failover: HAIL's per-replica indexes do not change Hadoop's fault
// tolerance (paper §2.3 and §6.4.3). This example kills a datanode in the
// middle of a job — specifically, a node holding replicas whose clustered
// index matches the query — and shows that:
//
//   - the job still completes with exactly the same results,
//   - blocks whose matching replica died fall back to scanning a
//     surviving replica (visible in the access-path statistics),
//   - a HAIL-1Idx layout (same index on all replicas) keeps index-scanning
//     through the failure.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/workload"
)

func run(label string, sortCols []int) map[string]int {
	cluster, err := hdfs.NewCluster(8)
	if err != nil {
		log.Fatal(err)
	}
	lines := workload.GenerateUserVisits(120_000, 99, workload.UserVisitsOptions{})
	client := &core.Client{
		Cluster: cluster,
		Config: core.LayoutConfig{
			Schema:      workload.UserVisitsSchema(),
			SortColumns: sortCols,
			BlockSize:   1 << 19, // ~28 small blocks so the failure hits some
		},
	}
	sum, err := client.Upload("/uv", lines)
	if err != nil {
		log.Fatal(err)
	}

	bq := workload.BobQueries()[0] // filter on visitDate
	victim := cluster.NameNode().GetHostsWithIndex(sum.BlockIDs[0], workload.UVVisitDate)[0]

	engine := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	var once sync.Once
	engine.OnProgress = func(done, total int) {
		if done >= total/4 {
			once.Do(func() {
				fmt.Printf("  [%s] killing datanode %d at %d/%d tasks\n", label, victim, done, total)
				if err := cluster.KillNode(victim); err != nil {
					fmt.Printf("  [%s] kill failed: %v\n", label, err)
				}
			})
		}
	}
	out := make(map[string]int)
	res, err := engine.Stream(context.Background(), &mapred.Job{
		Name: bq.Name, File: "/uv",
		Input: &core.InputFormat{Cluster: cluster, Query: bq.Query},
	}, func(chunk mapred.Chunk) bool {
		for row := range chunk.All() {
			out[row]++
		}
		return true
	})
	if err != nil {
		log.Fatalf("[%s] job failed despite failover: %v", label, err)
	}
	st := res.TotalStats()
	fmt.Printf("  [%s] job completed: %d rows, %d index scans, %d full-scan fallbacks, %d remote reads\n",
		label, res.Rows, st.IndexScans, st.FullScans, st.RemoteReads)
	return out
}

func main() {
	fmt.Println("HAIL (three different indexes): failure degrades some blocks to scans")
	multi := run("HAIL", []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue})

	fmt.Println("HAIL-1Idx (same index everywhere): failure keeps index scans")
	oneIdx := run("HAIL-1Idx", []int{workload.UVVisitDate, workload.UVVisitDate, workload.UVVisitDate})

	if len(multi) != len(oneIdx) {
		log.Fatalf("result mismatch: %d vs %d distinct rows", len(multi), len(oneIdx))
	}
	for k, v := range multi {
		if oneIdx[k] != v {
			log.Fatalf("result mismatch for %q", k)
		}
	}
	fmt.Println("results identical across layouts and through the failure — failover preserved")
}
