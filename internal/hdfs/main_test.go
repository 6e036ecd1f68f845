package hdfs

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// probeDeadline bounds the replica-path probe TestMain runs first. The
// probe takes milliseconds.
const probeDeadline = 5 * time.Second

// TestMain first drives every path that registers, updates or removes a
// replica under the namenode's lock through a fresh cluster, under a
// deadline of its own. A self-deadlock on that lock (a locking namenode
// call inside registerReplica's section) then fails the package in
// seconds with every goroutine's stack, not at go test's timeout in
// whichever test uploads first.
func TestMain(m *testing.M) {
	done := make(chan error, 1)
	go func() { done <- probeReplicaPaths() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "replica-path probe:", err)
			os.Exit(1)
		}
	case <-time.After(probeDeadline):
		stacks := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "replica-path probe still running after %v: deadlocked?\n%s", probeDeadline, stacks[:runtime.Stack(stacks, true)])
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// probeReplicaPaths uploads a block in each mode, adds, converts,
// quarantines and drops a replica, and saves and loads the result.
func probeReplicaPaths() error {
	dir, err := os.MkdirTemp("", "hdfs-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := NewCluster(4)
	if err != nil {
		return err
	}
	plain, stats, err := c.WriteBlock("/probe", randBlock(3_000, 1), 3, nil)
	if err != nil {
		return err
	}
	keep := func(_ int, _ NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		return bytes.Clone(block), ReplicaInfo{SortColumn: -1}, nil
	}
	hail, _, err := c.WriteBlock("/probe", randBlock(3_000, 2), 3, keep)
	if err != nil {
		return err
	}
	spare := NodeID(0)
	for slices.Contains(stats.PipelineNodes, spare) {
		spare++
	}
	if err := c.StoreAdditionalReplica(plain, spare, randBlock(3_000, 1), ReplicaInfo{SortColumn: -1}); err != nil {
		return err
	}
	if err := c.ReplaceReplica(plain, spare, randBlock(3_000, 1), ReplicaInfo{SortColumn: 0, HasIndex: true}); err != nil {
		return err
	}
	if !c.nn.QuarantineReplica(plain, spare, "probe") {
		return fmt.Errorf("block %d's fourth replica was not quarantined", plain)
	}
	if err := c.DropReplica(hail, c.nn.GetHosts(hail)[0]); err != nil {
		return err
	}
	if err := c.Save(dir); err != nil {
		return err
	}
	_, err = Load(dir)
	return err
}
