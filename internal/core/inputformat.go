package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
)

// InputFormat is the HailInputFormat (§4.3). It consults the namenode's
// replica directory to find, per block, a replica whose clustered index
// matches the job's filter, and shapes splits accordingly:
//
//   - Splitting disabled (§6.4's configuration): one split per block, like
//     standard Hadoop, but located at the replica with the matching index.
//   - HailSplitting enabled (§6.5): blocks are clustered by the node
//     holding their matching replica, and each cluster is packed into
//     SplitsPerNode splits — turning thousands of milliseconds-long map
//     tasks into a handful of longer ones.
//
// Jobs with no filter, or whose filter attribute has no index on any
// replica, fall back to standard per-block full-scan splitting, so failover
// behaviour for scan jobs is unchanged (§4.3).
type InputFormat struct {
	Cluster *hdfs.Cluster
	Query   *query.Query
	// Splitting enables the HailSplitting policy.
	Splitting bool
	// SplitsPerNode is the number of splits created per locality group
	// when Splitting is on; the paper uses the trackers' map slot count.
	// 0 defaults to 2.
	SplitsPerNode int
	// Adaptive, if set, receives the split phase's per-block index
	// coverage report for the query's filter column, including the blocks
	// that would fall back to a full scan. The adaptive indexer uses it to
	// record index demand and to plan lazy index creation during the job
	// (LIAH-style); the indexed blocks double as the lifecycle manager's
	// heat signal — every index-scan split an adaptive replica serves
	// stamps that replica's (file, column, block) entry, which is what
	// its eviction policy ranks cold replicas by. nil keeps the static
	// HAIL behaviour.
	Adaptive AdaptiveObserver
	// PackScans extends packing to the blocks §4.3 leaves per-block:
	// blocks with no usable index — and, when the engine runs the job
	// cached, blocks whose map output the result cache already holds,
	// pinned at the replica its probe names — are grouped by a preferred
	// alive replica node and packed into SplitsPerNode splits per node,
	// exactly the HailSplitting shape. This removes the per-task dispatch
	// bound from adaptive job 1 (nothing indexed yet) and from fully-cached
	// hot jobs (~zero map work per block). Packing trades away the
	// one-block failover granularity of per-block scan splits; the engine
	// compensates by repacking a failed packed split and re-executing only
	// the affected blocks (mapred.Split.Fallback).
	PackScans bool
}

// splitPlanner carries one Splits call's state: the namenode lookup
// counter and the job's arrays the splits are carved from. Every call gets
// a fresh planner, which is what makes a single InputFormat shareable
// across concurrent jobs: the split phase itself is pure directory reads,
// and what it accumulates lives here instead of on the shared struct.
type splitPlanner struct {
	*InputFormat
	nnOps   int64
	cached  func(hdfs.BlockID) (hdfs.NodeID, bool) // the engine's cache probe; nil: uncached
	nblocks int                                    // the job's blocks
	hosts   []hdfs.NodeID                          // the splits' Locations, back to back
	pins    []hdfs.NodeID                          // the splits' Pins, back to back
}

// carve returns the hosts appended since from as one split's Locations,
// cap-clamped so that the next carve's appends never reach it.
func (f *splitPlanner) carve(from int) []hdfs.NodeID {
	return f.hosts[from:len(f.hosts):len(f.hosts)]
}

// pin returns k blocks' pins to node n as one split's Pins, carved from the
// job's pins array; that is made on the first pin, with room for every
// block, so a scan job allocates none.
func (f *splitPlanner) pin(n hdfs.NodeID, k int) []hdfs.NodeID {
	if f.pins == nil {
		f.pins = make([]hdfs.NodeID, 0, f.nblocks)
	}
	from := len(f.pins)
	for range k {
		f.pins = append(f.pins, n)
	}
	return f.pins[from:len(f.pins):len(f.pins)]
}

// AdaptiveObserver is the adaptive indexing layer's view of the split
// phase. ObserveJob is called once per Splits call that has a
// usable filter column: `indexed` blocks get index-scan splits, `missing`
// blocks have no replica indexed on `column` and get full-scan splits.
type AdaptiveObserver interface {
	ObserveJob(file string, column int, indexed, missing []hdfs.BlockID)
}

// pickColumn selects the filter predicate that drives index selection:
// the first one for which at least one of the probed blocks has a
// replica with a matching clustered index. With fallback, the first
// filter column is returned even when no block is indexed on it — the
// attribute the adaptive layer will build toward. Returns -1 when there
// is no filter (or, without fallback, no match).
func (f *splitPlanner) pickColumn(blocks []hdfs.BlockID, fallback bool) int {
	if f.Query == nil || len(f.Query.Filter) == 0 || len(blocks) == 0 {
		return -1
	}
	for _, p := range f.Query.Filter {
		for _, b := range blocks {
			f.nnOps++
			if len(f.Cluster.NameNode().GetHostsWithIndex(b, p.Column)) > 0 {
				return p.Column
			}
		}
	}
	if fallback {
		return f.Query.Filter[0].Column
	}
	return -1
}

// indexColumn is the static policy: probe only the first block (every
// block of a statically-uploaded file has the same layout).
func (f *splitPlanner) indexColumn(blocks []hdfs.BlockID) int {
	if len(blocks) > 1 {
		blocks = blocks[:1]
	}
	return f.pickColumn(blocks, false)
}

// indexedHosts returns the block's alive matching-index holders, sorted
// by node ID, carved from the job's host array. The real namenode drops
// heartbeat-lost datanodes from block locations; Dir_rep entries for dead
// nodes remain (the node may return), so liveness is applied at lookup
// time, and dead holders are dropped entirely: a split pinned at (or
// located on) a dead node is a promise the engine cannot keep, and a
// block whose matching replicas are all unreachable degrades to a scan
// split — the same call the adaptive path's partitionByIndex makes.
// Dir_block keeps registration order, which is deterministic for a static
// upload but lets the adaptive path's concurrently registered replicas
// (and any future multi-writer path) leak arrival order into replica
// pinning — sorting makes a block's pin, hosts[0], a pure function of the
// directory's contents.
func (f *splitPlanner) indexedHosts(b hdfs.BlockID, col int) []hdfs.NodeID {
	f.nnOps++
	from := len(f.hosts)
	for _, h := range f.Cluster.NameNode().GetHostsWithIndex(b, col) {
		if dn, err := f.Cluster.DataNode(h); err == nil && dn.Alive() {
			f.hosts = append(f.hosts, h)
		}
	}
	alive := f.carve(from)
	slices.Sort(alive)
	return alive
}

// scanHosts resolves a scan block's candidate locations: the replica
// holders with dead nodes filtered out, in registration (pipeline) order.
// When no holder is alive the full list is returned — the engine then
// schedules availability-only and the read fails honestly — but a block
// with any alive replica never hands the engine a dead-only location
// list (the scan-split counterpart of indexedHosts' liveness rule).
func (f *splitPlanner) scanHosts(b hdfs.BlockID) []hdfs.NodeID {
	f.nnOps++
	hosts := f.Cluster.NameNode().GetHosts(b)
	from := len(f.hosts)
	for _, h := range hosts {
		if dn, err := f.Cluster.DataNode(h); err == nil && dn.Alive() {
			f.hosts = append(f.hosts, h)
		}
	}
	if len(f.hosts) > from {
		return f.carve(from)
	}
	return hosts
}

// adaptiveTarget picks the filter column the adaptive layer should index
// toward: probe *every* block (a partially converted file keeps using
// its new indexes) and fall back to the first filter column — the
// attribute the job actually needs, which the adaptive indexer will
// start building.
func (f *splitPlanner) adaptiveTarget(blocks []hdfs.BlockID) int {
	return f.pickColumn(blocks, true)
}

// partitionByIndex splits the block list into blocks that have a usable
// (alive) replica indexed on col and blocks that do not. Liveness
// matters here: Dir_rep keeps entries for dead nodes, but a block whose
// only matching replica is unreachable degrades to a full scan at read
// time, so the adaptive layer must treat it as missing and rebuild the
// index on a surviving node.
func (f *splitPlanner) partitionByIndex(blocks []hdfs.BlockID, col int) (indexed, missing []hdfs.BlockID) {
	for _, b := range blocks {
		if len(f.indexedHosts(b, col)) > 0 {
			indexed = append(indexed, b)
		} else {
			missing = append(missing, b)
		}
	}
	return indexed, missing
}

// Splits implements the split phase (§4.3) and returns that call's own
// stats. All mutable split-phase state lives on a per-call planner, so one
// InputFormat value may serve any number of concurrent jobs. PackScans
// consults cached, the engine's result-cache probe.
//
// HAIL's split phase needs no block-header reads — all index information
// lives in the namenode's Dir_rep (§6.4.1: HAIL "does not have to read any
// block header to compute input splits"), so BytesRead and Seeks stay zero
// by design. The phase is not free, though: liveness-aware location
// resolution and especially the adaptive path (partitionByIndex probes
// every block) are namenode directory lookups, reported in NameNodeOps so
// the metadata cost is measured rather than hidden behind a zero struct.
func (f *InputFormat) Splits(file string, cached func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]mapred.Split, mapred.TaskStats, error) {
	p := &splitPlanner{InputFormat: f, nnOps: 1, cached: cached} // 1: the FileBlocks lookup below
	blocks, err := f.Cluster.NameNode().FileBlocks(file)
	if err != nil {
		return nil, mapred.TaskStats{}, err
	}
	// Room for three holders a block, the default replication; a block's
	// one-block split carves its Blocks from blocks.
	p.nblocks, p.hosts = len(blocks), make([]hdfs.NodeID, 0, 3*len(blocks))
	col := p.indexColumn(blocks)
	if f.Adaptive != nil {
		if col < 0 {
			col = p.adaptiveTarget(blocks)
		}
		if col >= 0 {
			indexed, missing := p.partitionByIndex(blocks, col)
			f.Adaptive.ObserveJob(file, col, indexed, missing)
		}
	}
	var splits []mapred.Split
	switch {
	case col < 0:
		splits = p.scanSplits(blocks)
	case !f.Splitting:
		splits = p.perBlockIndexSplits(blocks, col)
	default:
		splits, err = p.hailSplits(blocks, col)
		if err != nil {
			return nil, mapred.TaskStats{}, err
		}
	}
	return splits, mapred.TaskStats{NameNodeOps: int(p.nnOps)}, nil
}

// cachedAliveReplica is the packing probe for fully-cached blocks: the
// replica node the result cache holds this block's output at, provided
// packing is on, the job runs cached, and that node is alive.
func (f *splitPlanner) cachedAliveReplica(b hdfs.BlockID) (hdfs.NodeID, bool) {
	if !f.PackScans || f.cached == nil {
		return 0, false
	}
	n, ok := f.cached(b)
	if !ok {
		return 0, false
	}
	if dn, err := f.Cluster.DataNode(n); err != nil || !dn.Alive() {
		return 0, false
	}
	return n, true
}

// scanSplits is the standard Hadoop fallback for blocks with no usable
// index: one split per block located at the block's alive replicas — or,
// with PackScans, SplitsPerNode packed splits per preferred node.
func (f *splitPlanner) scanSplits(blocks []hdfs.BlockID) []mapred.Split {
	if f.PackScans {
		return f.packScanSplits(blocks)
	}
	splits := make([]mapred.Split, 0, len(blocks))
	for i, b := range blocks {
		splits = append(splits, mapred.Split{
			Blocks:    blocks[i : i+1 : i+1],
			Locations: f.scanHosts(b),
		})
	}
	return splits
}

// packScanSplits is the PackScans policy: group scan blocks by a
// preferred alive replica node — the cached replica when the result cache
// already holds the block's output, the first alive holder otherwise —
// and emit SplitsPerNode packed splits per node, the same clustering
// shape hailSplits gives index-matched blocks. Blocks with no alive
// replica keep a degenerate per-block split (nothing can read them until
// a holder returns, and packing them would poison a whole packed split).
//
// Skewed replica placement is load-balanced: a node's pack-group share is
// capped at its fair share (⌈packable blocks / candidate nodes⌉), and a
// block whose preferred holder is at the cap spills to its next-preferred
// alive replica with room — so a node that happens to head most replica
// lists no longer absorbs most of the scan. Under even placement every
// head stays below the cap and grouping is identical to the unbalanced
// policy. Cache-pinned blocks never move (moving would forfeit the hit)
// but pre-charge their node's share so spillable blocks route around hot
// cached nodes.
func (f *splitPlanner) packScanSplits(blocks []hdfs.BlockID) []mapred.Split {
	type looseSplit struct {
		block hdfs.BlockID
		hosts []hdfs.NodeID
	}
	type packBlock struct {
		block  hdfs.BlockID
		pin    hdfs.NodeID // cache-pinned node, valid when pinned
		pinned bool
		hosts  []hdfs.NodeID // alive candidate holders, preference order
	}
	var packable []packBlock
	var loose []looseSplit
	load := make(map[hdfs.NodeID]int)
	cands := make(map[hdfs.NodeID]bool)
	for _, b := range blocks {
		if n, ok := f.cachedAliveReplica(b); ok {
			packable = append(packable, packBlock{block: b, pin: n, pinned: true})
			load[n]++
			cands[n] = true
			continue
		}
		hosts := f.scanHosts(b)
		alive := false
		if len(hosts) > 0 {
			// scanHosts returns the dead-only fallback list when no
			// holder is alive; probe the head to tell the cases apart.
			if dn, err := f.Cluster.DataNode(hosts[0]); err == nil && dn.Alive() {
				alive = true
			}
		}
		if !alive {
			loose = append(loose, looseSplit{b, hosts})
			continue
		}
		packable = append(packable, packBlock{block: b, hosts: hosts})
		for _, h := range hosts {
			cands[h] = true
		}
	}
	share := 0
	if len(cands) > 0 {
		share = (len(packable) + len(cands) - 1) / len(cands)
	}
	// Assign in block order (group member order is part of the output
	// byte-equivalence contract): preferred holder while under the cap,
	// else the first candidate with room, else the least-loaded candidate
	// (single-holder blocks can exceed the cap — there is nowhere else).
	groups := make(map[hdfs.NodeID][]hdfs.BlockID)
	for _, pb := range packable {
		n := pb.pin
		if !pb.pinned {
			n = pb.hosts[0]
			if load[n] >= share {
				for _, h := range pb.hosts {
					if load[h] < share {
						n = h
						break
					}
				}
				if load[n] >= share {
					for _, h := range pb.hosts[1:] {
						if load[h] < load[n] {
							n = h
						}
					}
				}
			}
			load[n]++
		}
		groups[n] = append(groups[n], pb.block)
	}
	splits := f.packGroups(groups)
	for _, l := range loose {
		splits = append(splits, mapred.Split{
			Blocks:    []hdfs.BlockID{l.block},
			Locations: l.hosts,
		})
	}
	return splits
}

// perBlockIndexSplits keeps one split per block but points it at the
// replica with the matching index. With PackScans, the blocks that would
// fall back to per-block scans — and fully-cached blocks, whose work is
// already done wherever their index lives — are packed instead.
func (f *splitPlanner) perBlockIndexSplits(blocks []hdfs.BlockID, col int) []mapred.Split {
	splits := make([]mapred.Split, 0, len(blocks))
	var packable []hdfs.BlockID
	for i, b := range blocks {
		if _, ok := f.cachedAliveReplica(b); ok {
			packable = append(packable, b)
			continue
		}
		hosts := f.indexedHosts(b, col)
		if len(hosts) == 0 {
			// This block has no matching replica (e.g. written under a
			// different config): full scan for it.
			if f.PackScans {
				packable = append(packable, b)
				continue
			}
			splits = append(splits, mapred.Split{
				Blocks:    blocks[i : i+1 : i+1],
				Locations: f.scanHosts(b),
			})
			continue
		}
		splits = append(splits, mapred.Split{
			Blocks:    blocks[i : i+1 : i+1],
			Locations: hosts,
			Pins:      f.pin(hosts[0], 1),
		})
	}
	if len(packable) > 0 {
		splits = append(splits, f.packScanSplits(packable)...)
	}
	return splits
}

// packGroups turns locality groups into SplitsPerNode packed splits per
// node with every block pinned to its group node — the split shape shared
// by hailSplits (§4.3) and packScanSplits. Split order is deterministic:
// ascending node ID, then stride.
func (f *splitPlanner) packGroups(groups map[hdfs.NodeID][]hdfs.BlockID) []mapred.Split {
	perNode := f.SplitsPerNode
	if perNode <= 0 {
		perNode = 2
	}
	nodes := make([]hdfs.NodeID, 0, len(groups))
	for n := range groups {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	var splits []mapred.Split
	for _, n := range nodes {
		bs := groups[n]
		nSplits := perNode
		if nSplits > len(bs) {
			nSplits = len(bs)
		}
		for s := 0; s < nSplits; s++ {
			split := mapred.Split{Locations: []hdfs.NodeID{n}}
			for i := s; i < len(bs); i += nSplits {
				split.Blocks = append(split.Blocks, bs[i])
			}
			split.Pins = f.pin(n, len(split.Blocks))
			splits = append(splits, split)
		}
	}
	return splits
}

// hailSplits implements HailSplitting (§4.3): cluster the blocks of the
// input by locality — the node holding the replica with the matching index
// — then create SplitsPerNode splits per cluster.
func (f *splitPlanner) hailSplits(blocks []hdfs.BlockID, col int) ([]mapred.Split, error) {
	groups := make(map[hdfs.NodeID][]hdfs.BlockID)
	var scanBlocks []hdfs.BlockID
	for _, b := range blocks {
		hosts := f.indexedHosts(b, col)
		if len(hosts) == 0 {
			scanBlocks = append(scanBlocks, b)
			continue
		}
		groups[hosts[0]] = append(groups[hosts[0]], b)
	}
	splits := f.packGroups(groups)
	// Blocks with no usable index fall back to scan splits: per-block by
	// default (failover properties untouched), packed under PackScans.
	splits = append(splits, f.scanSplits(scanBlocks)...)
	if len(splits) == 0 && len(blocks) > 0 {
		return nil, fmt.Errorf("hail: splitting produced no splits for %d blocks", len(blocks))
	}
	return splits, nil
}

// Open returns the HailRecordReader for a split, taken from the pool with
// the scratch an earlier Open left it (see recordReader.release).
func (f *InputFormat) Open(split mapred.Split, node hdfs.NodeID) (mapred.BatchReader, error) {
	r, _ := readers.Get().(*recordReader)
	if r == nil {
		r = new(recordReader)
	}
	*r = recordReader{
		cluster: f.Cluster,
		query:   f.Query,
		split:   split,
		node:    node,
		scan:    r.scan,
		batch:   r.batch,
		sel:     r.sel,
	}
	return r, nil
}

// QuerySignature implements mapred.QuerySigner: the HailRecordReader is a
// pure function of (block bytes, query), so the query's normalized
// signature — conjuncts merged and ordered, projection preserved — keys
// the block-level result cache.
func (f *InputFormat) QuerySignature() (string, bool) {
	return f.Query.Signature(), true
}
