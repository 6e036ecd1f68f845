// Scientific: the paper's Synthetic workload stands in for scientific
// datasets "where all or most of the attributes are integer/float
// attributes (e.g., the SDSS dataset)" (§6.2). This example shows the two
// levers HAIL gives such datasets:
//
//  1. Binary PAX representation roughly halves the stored size of numeric
//     text data, so uploading with three clustered indexes is still faster
//     than a plain text upload.
//  2. PAX reads only the projected columns: narrowing the projection from
//     19 attributes to 1 cuts the bytes a query touches by an order of
//     magnitude.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/workload"
)

func main() {
	cluster, err := hdfs.NewCluster(6)
	if err != nil {
		log.Fatal(err)
	}
	lines := workload.GenerateSynthetic(100_000, 42)

	client := &core.Client{
		Cluster: cluster,
		Config: core.LayoutConfig{
			Schema:      workload.SyntheticSchema(),
			SortColumns: []int{0, 1, 2},
			BlockSize:   1 << 21,
		},
	}
	sum, err := client.Upload("/sdss", lines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("text %.1f MB → binary PAX %.1f MB per copy (%.0f%%), %d blocks, 3 clustered indexes\n",
		float64(sum.TextBytes)/1e6, float64(sum.PaxBytes)/1e6,
		100*float64(sum.PaxBytes)/float64(sum.TextBytes), sum.Blocks)

	engine := &mapred.Engine{Cluster: cluster}
	fmt.Println("\nTable 1 grid: selectivity × projection width (all filter on attr1):")
	for _, bq := range workload.SynQueries() {
		// Only the row count is printed, so nothing consumes the chunks.
		res, err := engine.Stream(context.Background(), &mapred.Job{
			Name: bq.Name, File: "/sdss",
			Input: &core.InputFormat{Cluster: cluster, Query: bq.Query, Splitting: true},
		}, nil)
		if err != nil {
			log.Fatalf("%s: %v", bq.Name, err)
		}
		st := res.TotalStats()
		fmt.Printf("  %-8s sel=%.2f proj=%2d attrs: %6d rows, %6.2f MB read, %d tasks\n",
			bq.Name, bq.Selectivity, len(bq.Query.Projection),
			res.Rows, float64(st.BytesRead)/1e6, len(res.Tasks))
	}
	fmt.Println("\nnote how bytes read shrink with both selectivity and projection width —")
	fmt.Println("row-layout systems only benefit from the former (paper §6.4.2).")
}
