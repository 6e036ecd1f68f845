package trojan

import (
	"fmt"
	"sort"

	"repro/internal/hadoop"
	"repro/internal/hdfs"
	"repro/internal/schema"
)

// System is the Hadoop++ deployment: configuration for upload-then-index.
type System struct {
	Cluster     *hdfs.Cluster
	Schema      *schema.Schema
	BlockSize   int // target text bytes per block
	Replication int
	// IndexColumn is the single global attribute the trojan index is
	// created on for every block (all replicas identical), or -1 for
	// binary conversion without an index.
	IndexColumn int
	Sep         byte // field separator; 0 defaults to ','
}

// UploadSummary carries the measured sizes of both phases for the cost
// model: the plain upload and the index-creation MapReduce jobs.
type UploadSummary struct {
	// Phase 1: standard Hadoop upload of the text data.
	Text hadoop.UploadSummary
	// Phase 2: the conversion/index jobs.
	Blocks         int
	Rows           int64
	BinaryBytes    int64 // row-layout binary size (one copy)
	IndexBytes     int64 // trojan index size (one copy)
	StoredBytes    int64 // binary+index across all replicas
	SkippedRecords int64 // malformed rows dropped by the conversion UDF
	BlockIDs       []hdfs.BlockID
}

// binaryFile names the converted file Hadoop++ queries actually read.
func binaryFile(file string) string { return file + ".trojan" }

// Upload performs the full Hadoop++ ingestion path: a standard text upload
// followed by the MapReduce-based conversion that re-reads every block,
// parses it, sorts it on the index column, builds the trojan index and
// rewrites it through the replication pipeline. The conversion really
// re-reads the stored text blocks — the extra I/O Figure 4 charges
// Hadoop++ for.
func (s *System) Upload(file string, lines []string) (UploadSummary, error) {
	if s.Schema == nil {
		return UploadSummary{}, fmt.Errorf("trojan: no schema")
	}
	sep := s.Sep
	if sep == 0 {
		sep = ','
	}
	up := &hadoop.Uploader{Cluster: s.Cluster, BlockSize: s.BlockSize, Replication: s.Replication}
	textSum, err := up.Upload(file, lines)
	if err != nil {
		return UploadSummary{}, err
	}
	sum := UploadSummary{Text: textSum}

	// The conversion MapReduce job: one map task per text block, reading
	// the stored block back, parsing, sorting, indexing and rewriting.
	parser := &schema.Parser{Schema: s.Schema, Sep: sep}
	for _, b := range textSum.BlockIDs {
		data, _, err := s.Cluster.ReadBlock(b, 0)
		if err != nil {
			return sum, fmt.Errorf("trojan: conversion job: %w", err)
		}
		rows, skipped := parseLines(parser, data)
		sum.SkippedRecords += skipped
		if s.IndexColumn >= 0 {
			sortRows(rows, s.IndexColumn)
		}
		bin, err := MarshalBlock(s.Schema, rows, s.IndexColumn)
		if err != nil {
			return sum, err
		}
		id, _, err := s.Cluster.WriteBlock(binaryFile(file), bin, s.Replication, nil)
		if err != nil {
			return sum, err
		}
		r, err := NewBlockReader(bin)
		if err != nil {
			return sum, err
		}
		sum.Blocks++
		sum.Rows += int64(len(rows))
		sum.BinaryBytes += int64(r.RowAreaBytes())
		sum.IndexBytes += int64(r.IndexBytes())
		sum.StoredBytes += int64(len(bin)) * int64(s.Replication)
		sum.BlockIDs = append(sum.BlockIDs, id)
	}
	return sum, nil
}

// parseLines parses the block's text lines, skipping malformed rows.
// Hadoop++ has no bad-record section (HAIL's is §3.1); its conversion UDF
// drops records it cannot parse, so the skipped count is reported.
func parseLines(p *schema.Parser, data []byte) (rows []schema.Row, skipped int64) {
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				row, err := p.ParseLine(string(data[start:i]))
				if err != nil {
					skipped++
				} else {
					rows = append(rows, row)
				}
			}
			start = i + 1
		}
	}
	return rows, skipped
}

// sortRows stable-sorts rows by the given column, keeping ties in input
// order so conversion is deterministic.
func sortRows(rows []schema.Row, col int) {
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i][col].Compare(rows[j][col]) < 0
	})
}
