package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/hadoop"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// failoverFixture is a fresh 4-node cluster holding the same 2,000 lines
// as a HAIL file (/uv, three sort orders), a text file (/text) and a
// Hadoop++ file (/trojan, indexed on visitDate), each replicated three
// times, with the first block of each (hpp: the Hadoop++ file's).
type failoverFixture struct {
	cluster         *hdfs.Cluster
	cfg             LayoutConfig
	sys             *trojan.System
	hail, text, hpp hdfs.BlockID
}

func newFailoverFixture(t *testing.T) *failoverFixture {
	t.Helper()
	cluster, client, sum, lines := uvFixture(t, 2_000, workload.UserVisitsOptions{})
	up := &hadoop.Uploader{Cluster: cluster, BlockSize: 64 << 10, Replication: 3}
	text, err := up.Upload("/text", lines)
	if err != nil {
		t.Fatal(err)
	}
	sys := &trojan.System{
		Cluster: cluster, Schema: workload.UserVisitsSchema(), BlockSize: 64 << 10,
		Replication: 3, IndexColumn: workload.UVVisitDate,
	}
	tro, err := sys.Upload("/trojan", lines)
	if err != nil {
		t.Fatal(err)
	}
	return &failoverFixture{cluster, client.Config, sys, sum.BlockIDs[0], text.BlockIDs[0], tro.BlockIDs[0]}
}

// drain reads every batch of the one-block split of b that node runs.
func drain(f mapred.InputFormat, b hdfs.BlockID, node hdfs.NodeID) error {
	rr, err := f.Open(mapred.Split{Blocks: []hdfs.BlockID{b}}, node)
	if err != nil {
		return err
	}
	_, err = rr.ReadBatches(func(*mapred.Batch) {})
	return err
}

// TestEveryReaderFollowsOneFailoverPolicy: every reader of a stored block
// goes through hdfs.Cluster.ReadFrom, so each one, read from node 0, fails
// over past a corrupt replica and quarantines it, and when every holder of
// the block is corrupt fails with an error that wraps ErrCorruptChunk,
// leaving the block's last replica in service. RebuildBlock is the read
// of both the adaptive indexer and RecoverFile. RecoverFile reads only an
// under-replicated block, so its row drops the block's third replica
// first.
func TestEveryReaderFollowsOneFailoverPolicy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(*testing.T, *failoverFixture) hdfs.BlockID
		read  func(*failoverFixture) error
	}{
		{"FileSchema", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.hail }, func(f *failoverFixture) error {
			_, err := FileSchema(f.cluster, "/uv")
			return err
		}},
		{"HAIL scan", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.hail }, func(f *failoverFixture) error {
			return drain(&InputFormat{Cluster: f.cluster}, f.hail, 0)
		}},
		{"RebuildBlock", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.hail }, func(f *failoverFixture) error {
			_, _, err := RebuildBlock(f.cluster, f.hail, 0, workload.UVDuration)
			return err
		}},
		{"RecoverFile", func(t *testing.T, f *failoverFixture) hdfs.BlockID {
			if err := f.cluster.DropReplica(f.hail, f.cluster.NameNode().GetHosts(f.hail)[2]); err != nil {
				t.Fatal(err)
			}
			return f.hail
		}, func(f *failoverFixture) error {
			_, err := RecoverFile(f.cluster, "/uv", f.cfg)
			return err
		}},
		{"ReadBlockAny", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.hail }, func(f *failoverFixture) error {
			_, _, err := f.cluster.ReadBlockAny(f.hail, 0)
			return err
		}},
		{"Hadoop reader", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.text }, func(f *failoverFixture) error {
			return drain(&hadoop.TextInputFormat{Cluster: f.cluster}, f.text, 0)
		}},
		{"Hadoop++ split phase", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.hpp }, func(f *failoverFixture) error {
			_, _, err := (&trojan.InputFormat{System: f.sys}).Splits("/trojan", nil)
			return err
		}},
		{"Hadoop++ reader", func(t *testing.T, f *failoverFixture) hdfs.BlockID { return f.hpp }, func(f *failoverFixture) error {
			return drain(&trojan.InputFormat{System: f.sys, Query: workload.BobQueries()[0].Query}, f.hpp, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The header chunk: every reader reads it.
			corrupt := func(c *hdfs.Cluster, b hdfs.BlockID, node hdfs.NodeID) {
				t.Helper()
				dn, _ := c.DataNode(node)
				if err := dn.CorruptByte(b, 3); err != nil {
					t.Fatal(err)
				}
			}

			f := newFailoverFixture(t)
			b := tc.block(t, f)
			nn := f.cluster.NameNode()
			first := f.cluster.ReplicaOrder(b, 0)[0]
			gen := nn.Generation(b)
			corrupt(f.cluster, b, first)
			if err := tc.read(f); err != nil {
				t.Fatalf("one corrupt replica: %v", err)
			}
			if slices.Contains(nn.GetHosts(b), first) || nn.Generation(b) <= gen {
				t.Errorf("one corrupt replica: block %d is on %v at generation %d (was %d); want node %d quarantined",
					b, nn.GetHosts(b), nn.Generation(b), gen, first)
			}

			f = newFailoverFixture(t)
			b = tc.block(t, f)
			nn = f.cluster.NameNode()
			for _, h := range nn.GetHosts(b) {
				corrupt(f.cluster, b, h)
			}
			if err := tc.read(f); !errors.Is(err, hdfs.ErrCorruptChunk) {
				t.Errorf("every holder corrupt: err = %v, want one wrapping ErrCorruptChunk", err)
			}
			if held := nn.GetHosts(b); len(held) != 1 {
				t.Errorf("every holder corrupt: block %d is left on %v; want all but its last replica quarantined", b, held)
			}
		})
	}
}
