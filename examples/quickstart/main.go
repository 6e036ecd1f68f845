// Quickstart: upload a small CSV dataset with HAIL — every replica gets a
// different clustered index — and run an annotated MapReduce job that
// picks the right index automatically.
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
)

func main() {
	// A 4-datanode in-process cluster.
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		log.Fatal(err)
	}

	// Dataset schema: id, city, temperature.
	sch, err := schema.ParseSchema("id:int32,city:string,temp:float64")
	if err != nil {
		log.Fatal(err)
	}

	// HAIL layout: replication 3, each replica clustered and indexed on a
	// different attribute (this is Bob's configuration file, §1.1).
	client := &core.Client{
		Cluster: cluster,
		Config: core.LayoutConfig{
			Schema:      sch,
			SortColumns: []int{0, 1, 2}, // id, city, temp
			BlockSize:   1 << 16,
		},
	}

	lines := []string{
		"1,Saarbruecken,18.5",
		"2,Istanbul,31.0",
		"3,Berlin,22.5",
		"4,Istanbul,28.0",
		"5,Paris,24.0",
		"6,Saarbruecken,19.0",
		"this line is malformed and becomes a bad record",
		"7,Berlin,17.0",
	}
	sum, err := client.Upload("/weather", lines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %d rows in %d block(s), %d bad record(s); indexes on id, city, temp\n",
		sum.Rows, sum.Blocks, sum.BadRecords)

	// An annotated job: the paper's @HailQuery syntax. Filtering on @2
	// (city) will use the replica whose clustered index is on city.
	q, err := query.ParseAnnotation(sch, `@HailQuery(filter="@2 = Istanbul", projection={@1,@3})`)
	if err != nil {
		log.Fatal(err)
	}

	// The map function gets whole batches, pre-filtered and pre-projected:
	// each row is {id, temp}, Lines renders them as text, and EmitLines
	// hands that text over whole (a job with no MapBatch does the same).
	// Bad records arrive flagged in b.Bad; this job skips them. Once the
	// job has run, the engine hands each block's output to the consumer,
	// in task order, as text and row ends.
	engine := &mapred.Engine{Cluster: cluster}
	fmt.Println("rows with city=Istanbul (id,temp):")
	res, err := engine.Stream(context.Background(), &mapred.Job{
		Name:  "istanbul-temps",
		File:  "/weather",
		Input: &core.InputFormat{Cluster: cluster, Query: q},
		MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
			out.EmitLines(b.Lines(','))
		},
	}, func(chunk mapred.Chunk) bool {
		for row := range chunk.All() {
			fmt.Println(" ", row)
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	st := res.TotalStats()
	fmt.Printf("access paths: %d index scan(s), %d full scan(s); %d bytes read\n",
		st.IndexScans, st.FullScans, st.BytesRead)
}
