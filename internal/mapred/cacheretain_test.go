package mapred_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/schema"
)

// stringInput is a cacheable input of one split per block, each block one
// batch of a string column whose rows name their block.
type stringInput struct{ blocks int }

func (in stringInput) Splits(string, func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]mapred.Split, mapred.TaskStats, error) {
	var splits []mapred.Split
	for b := range in.blocks {
		splits = append(splits, mapred.Split{Blocks: []hdfs.BlockID{hdfs.BlockID(b)}, Locations: []hdfs.NodeID{0}})
	}
	return splits, mapred.TaskStats{}, nil
}

func (in stringInput) Open(split mapred.Split, _ hdfs.NodeID) (mapred.BatchReader, error) {
	return stringReader(split), nil
}

func (stringInput) QuerySignature() (string, bool) { return "strings", true }

type stringReader mapred.Split

func (r stringReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	for _, b := range r.Blocks {
		vec := schema.NewVector(schema.String)
		for i := range 300 {
			vec.Append(schema.StringVal(fmt.Sprintf("block %d row %d", b, i)))
		}
		stats.Blocks++
		fn(&mapred.Batch{Cols: []*schema.Vector{vec}, Rows: 300})
	}
	return stats, nil
}

// TestCachedChunkRetainsNoPooledBuffer: the chunks a cold job computes keep
// their segment headers and row ends in pooled block buffers, and the
// cache keeps what it admits past the job. Once the job has returned and
// two collections have emptied the pool, no array of those buffers may
// stay reachable — qcache holds a clone, not the engine's chunk — and a
// hot job still answers the same rows from the cache. Without the clone
// in PutChunk every array stays reachable through the cache.
func TestCachedChunkRetainsNoPooledBuffer(t *testing.T) {
	c, err := hdfs.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	cache := qcache.New(0)
	e := &mapred.Engine{Cluster: c, Cache: cache, Parallelism: 1}
	job := &mapred.Job{Name: "retain", File: "/s", Input: stringInput{blocks: 4}}
	var probes []func() int
	var cold []string
	if _, err := e.Stream(context.Background(), job, func(chunk mapred.Chunk) bool {
		probes = append(probes, mapred.Reachable(chunk))
		for row := range chunk.All() {
			cold = append(cold, row)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 4 || len(probes) != 4 {
		t.Fatalf("%d entries cached, %d chunks computed; want 4 and 4", st.Entries, len(probes))
	}
	runtime.GC()
	runtime.GC() // the pool's victim cache goes with the second
	for i, reachable := range probes {
		if n := reachable(); n > 0 {
			t.Errorf("block %d: %d arrays of its pooled buffer still reachable with the cache holding its chunk", i, n)
		}
	}
	var hot []string
	res, err := e.Stream(context.Background(), job, func(chunk mapred.Chunk) bool {
		for row := range chunk.All() {
			hot = append(hot, row)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.TotalStats(); st.BlocksFromCache != 4 || !slices.Equal(hot, cold) || len(cold) != 1200 {
		t.Errorf("hot job: %d of 4 blocks from the cache, %d rows equal to the cold job's %d: %v", st.BlocksFromCache, len(hot), len(cold), slices.Equal(hot, cold))
	}
	runtime.KeepAlive(cache)
}
