// Package hadoop implements the baseline system of the paper's
// experiments: standard Hadoop MapReduce over standard HDFS. Files are
// uploaded as plain text blocks with byte-identical replicas; queries scan
// every block, and the user map function splits each text record into
// attributes, filters and projects it itself (the "MAP FUNCTION FOR HADOOP
// MAPREDUCE" pseudo-code in §4.1). That map function is derived from the
// same annotation HAIL reads (Map), so the two systems answer one query.
//
// One simplification relative to real HDFS: blocks are cut at line
// boundaries instead of at a fixed byte count. Real Hadoop cuts at a fixed
// size and TextInputFormat re-attaches boundary-spanning lines at read
// time; cutting at line boundaries yields the same record-to-block
// assignment without reimplementing the boundary dance, and matches how
// HAIL's content-aware upload cuts blocks anyway (§3.1).
package hadoop

import (
	"bytes"
	"fmt"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
)

// Uploader writes text files to HDFS the standard way.
type Uploader struct {
	Cluster     *hdfs.Cluster
	BlockSize   int // target block size in bytes
	Replication int
}

// UploadSummary reports what an upload stored, for the cost model.
type UploadSummary struct {
	Blocks      int
	TextBytes   int64 // total input text size
	StoredBytes int64 // bytes stored across all replicas
	BlockSizes  []int // per-block text size
	BlockIDs    []hdfs.BlockID
}

// Upload cuts lines into blocks of roughly BlockSize bytes and writes each
// through the HDFS pipeline with byte-identical replicas. One block buffer
// serves the whole upload: the pipeline stores a copy of what it is given.
func (u *Uploader) Upload(file string, lines []string) (UploadSummary, error) {
	if u.BlockSize <= 0 {
		return UploadSummary{}, fmt.Errorf("hadoop: block size must be positive")
	}
	if u.Replication <= 0 {
		return UploadSummary{}, fmt.Errorf("hadoop: replication must be positive")
	}
	var sum UploadSummary
	var data []byte
	flush := func() error {
		if len(data) == 0 {
			return nil
		}
		id, _, err := u.Cluster.WriteBlock(file, data, u.Replication, nil)
		if err != nil {
			return err
		}
		sum.Blocks++
		sum.BlockSizes = append(sum.BlockSizes, len(data))
		sum.BlockIDs = append(sum.BlockIDs, id)
		sum.StoredBytes += int64(len(data)) * int64(u.Replication)
		data = data[:0]
		return nil
	}
	for _, line := range lines {
		data = append(append(data, line...), '\n')
		sum.TextBytes += int64(len(line) + 1)
		if len(data) >= u.BlockSize {
			if err := flush(); err != nil {
				return sum, err
			}
		}
	}
	if err := flush(); err != nil {
		return sum, err
	}
	return sum, nil
}

// TextInputFormat is standard Hadoop's input format: one split per block,
// split locations = the block's replica holders, full-scan line reader.
type TextInputFormat struct {
	Cluster *hdfs.Cluster
}

// Splits creates one split per HDFS block (the default policy, §4.2). The
// standard split phase only consults the namenode, so its stats are zero;
// every split is per-block, so the cache probe plans nothing.
func (f *TextInputFormat) Splits(file string, _ func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]mapred.Split, mapred.TaskStats, error) {
	blocks, err := f.Cluster.NameNode().FileBlocks(file)
	if err != nil {
		return nil, mapred.TaskStats{}, err
	}
	splits := make([]mapred.Split, 0, len(blocks))
	for _, b := range blocks {
		splits = append(splits, mapred.Split{
			Blocks:    []hdfs.BlockID{b},
			Locations: f.Cluster.NameNode().GetHosts(b),
		})
	}
	return splits, mapred.TaskStats{}, nil
}

// Open returns a line record reader for the split.
func (f *TextInputFormat) Open(split mapred.Split, node hdfs.NodeID) (mapred.BatchReader, error) {
	return &lineReader{cluster: f.Cluster, split: split, node: node}, nil
}

// lineReader reads whole blocks (Cluster.ReadBlock: every chunk verified,
// nothing copied) and delivers each block's text lines as
// one batch of raw records (Batch.Raw), leaving parsing to the map
// function — exactly what makes the Hadoop baseline pay full-scan I/O plus
// per-record split CPU for every query.
type lineReader struct {
	cluster *hdfs.Cluster
	split   mapred.Split
	node    hdfs.NodeID
	batch   mapred.Batch // reused across blocks; fn must not retain it
}

func (r *lineReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	for _, b := range r.split.Blocks {
		data, servedBy, err := r.cluster.ReadBlock(b, r.node)
		if err != nil {
			return stats, err
		}
		stats.Blocks++
		stats.FullScans++
		stats.BytesRead += int64(len(data))
		stats.Seeks++
		stats.TextBytesParsed += int64(len(data))
		if servedBy != r.node {
			stats.RemoteReads++
		}
		raw := r.batch.Raw[:0]
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			var line []byte
			if nl < 0 {
				line, data = data, nil
			} else {
				line, data = data[:nl], data[nl+1:]
			}
			if len(line) == 0 && len(data) == 0 {
				break
			}
			raw = append(raw, string(line))
		}
		stats.RecordsScanned += int64(len(raw))
		stats.RecordsDelivered += int64(len(raw))
		r.batch.Raw = raw
		if len(raw) > 0 {
			fn(&r.batch)
		}
	}
	return stats, nil
}

// Map is the standard-Hadoop map function of a query over schema s: per raw
// line of the batch, split, filter and project it (query.EvalText), and
// emit the projected row. A line that does not parse is dropped, as a
// hand-written map that checks its input drops it.
func Map(s *schema.Schema, q *query.Query) mapred.MapBatchFunc {
	return func(b *mapred.Batch, out mapred.Emitter) {
		for _, line := range b.Raw {
			if row, ok := q.EvalText(s, line); ok {
				out.Emit(row, "")
			}
		}
	}
}
