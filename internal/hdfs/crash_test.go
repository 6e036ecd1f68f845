package hdfs

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// errCrash is what crashFS returns for the operation it fails.
var errCrash = errors.New("injected crash")

// crashFS fails the failAt-th file operation of a save, counting from 1,
// as a crash there would: a failed write leaves the first half of its
// bytes, a failed fsync all of them. A write-and-fsync counts as two
// operations.
type crashFS struct {
	failAt, ops int
}

func (f *crashFS) crash() bool {
	f.ops++
	return f.ops == f.failAt
}

func (f *crashFS) writeFile(path string, data []byte) error {
	if f.crash() { // the write
		_ = os.WriteFile(path, data[:len(data)/2], 0o644)
		return errCrash
	}
	if f.crash() { // the fsync
		_ = os.WriteFile(path, data, 0o644)
		return errCrash
	}
	return osFS{}.writeFile(path, data)
}

func (f *crashFS) rename(oldpath, newpath string) error {
	if f.crash() {
		return errCrash
	}
	return osFS{}.rename(oldpath, newpath)
}

func (f *crashFS) remove(path string) error {
	if f.crash() {
		return errCrash
	}
	return osFS{}.remove(path)
}

func (f *crashFS) syncDir(path string) error {
	if f.crash() {
		return errCrash
	}
	return osFS{}.syncDir(path)
}

// clusterState is what a Load must reproduce: the file table and, per
// replica, its Dir_rep entry with its adaptive record, and its bytes.
type clusterState struct {
	Files    map[string][]BlockID
	Replicas map[repKey]replicaState
}

type replicaState struct {
	Info ReplicaInfo
	Data string
}

func stateOf(t *testing.T, c *Cluster) clusterState {
	t.Helper()
	st := clusterState{Files: map[string][]BlockID{}, Replicas: map[repKey]replicaState{}}
	files, reps, dirty, err := c.snapshotForSave()
	if err != nil {
		t.Fatal(err)
	}
	c.nn.restoreDirty(dirty)
	st.Files = files
	for _, rp := range reps {
		st.Replicas[repKey{rp.Block, rp.Node}] = replicaState{rp.Info, string(rp.stored.data)}
	}
	return st
}

// assertOnlyListed fails for every file in dir but the manifest and the
// replica files it lists.
func assertOnlyListed(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{filepath.Join(dir, "manifest.json"): true}
	for _, rp := range m.Replicas {
		data, sums := replicaFiles(dir, rp.Node, rp.Block, rp.Alt)
		listed[data], listed[sums] = true, true
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !listed[path] {
			t.Errorf("%s is on disk, but the manifest does not list it", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// crashFixture saves a four-node cluster — three blocks of /f, two
// replicas each, plus adaptive replicas of blocks 0 and 1 — and then
// changes it the ways a save must commit: block 2's first replica
// rewritten in place, an adaptive replica of block 2 added, block 1's
// adaptive replica dropped and block 0's touched. It returns the cluster,
// the directory and the states before and after the changes.
func crashFixture(t *testing.T) (c *Cluster, dir string, pre, post clusterState) {
	t.Helper()
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []BlockID
	for i := 0; i < 3; i++ {
		id, _, err := c.WriteBlock("/f", randBlock(3_000+100*i, int64(i)), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	free := func(b BlockID) NodeID {
		for n := NodeID(0); ; n++ {
			if _, held := c.nn.ReplicaInfo(b, n); !held {
				return n
			}
		}
	}
	addAdaptive := func(b BlockID, seed int64) NodeID {
		node := free(b)
		info := ReplicaInfo{SortColumn: 1, HasIndex: true, IndexSize: 8,
			Adaptive: &AdaptiveRecord{File: "/f", Charged: 2_500, Added: true, Touches: 1, LastTouch: 1}}
		if err := c.StoreAdditionalReplica(b, node, randBlock(2_500, seed), info); err != nil {
			t.Fatal(err)
		}
		return node
	}
	hot := addAdaptive(ids[0], 10)
	cold := addAdaptive(ids[1], 11)
	dir = t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	pre = stateOf(t, c)

	if err := c.ReplaceReplica(ids[2], c.nn.GetHosts(ids[2])[0], randBlock(3_300, 12), ReplicaInfo{SortColumn: 2, HasIndex: true, IndexSize: 16}); err != nil {
		t.Fatal(err)
	}
	addAdaptive(ids[2], 13)
	if err := c.DropReplica(ids[1], cold); err != nil {
		t.Fatal(err)
	}
	c.nn.SetHeat([]Heat{{Block: ids[0], Node: hot, Touches: 2, LastTouch: 5}})
	post = stateOf(t, c)
	return c, dir, pre, post
}

// TestSaveCrashAtEveryStep fails each file operation of one save in turn —
// a save that commits an in-place replace, an added adaptive replica, a
// drop and a heat change — and loads what it left. Load never fails, and
// yields the state before the save or the one after it, replicas, entries,
// adaptive records and bytes alike, with nothing quarantined. The next
// save that succeeds — by the process that loaded the directory, or a
// retry by the one whose save failed — leaves no file its manifest does
// not list.
func TestSaveCrashAtEveryStep(t *testing.T) {
	outcomes := map[string]int{}
	n := 1
	for ; ; n++ {
		for _, retry := range []bool{false, true} {
			c, dir, pre, post := crashFixture(t)
			c.fs = &crashFS{failAt: n}
			err := c.Save(dir)
			c.fs = osFS{}
			if err == nil {
				if outcomes["old"] == 0 || outcomes["new"] == 0 {
					t.Fatalf("over a save of %d file operations the crashes left %v; want both the old state and the new", n-1, outcomes)
				}
				t.Logf("a save of %d file operations; crashes left %v", n-1, outcomes)
				return
			}
			if !errors.Is(err, errCrash) {
				t.Fatalf("crash at operation %d: Save returned %v", n, err)
			}
			loaded, err := Load(dir)
			if err != nil {
				t.Fatalf("crash at operation %d: Load: %v", n, err)
			}
			if q := loaded.nn.Quarantined(); len(q) != 0 {
				t.Fatalf("crash at operation %d: Load quarantined %+v", n, q)
			}
			got := stateOf(t, loaded)
			switch {
			case reflect.DeepEqual(got, pre):
				outcomes["old"]++
			case reflect.DeepEqual(got, post):
				outcomes["new"]++
			default:
				t.Fatalf("crash at operation %d: loaded\n%+v\nwant the state before the save\n%+v\nor after it\n%+v", n, got, pre, post)
			}
			next, want := loaded, got
			if retry {
				next, want = c, post
			}
			if err := next.Save(dir); err != nil {
				t.Fatalf("crash at operation %d, then a save (retry %v): %v", n, retry, err)
			}
			assertOnlyListed(t, dir)
			again, err := Load(dir)
			if err != nil {
				t.Fatalf("crash at operation %d, then a save (retry %v): Load: %v", n, retry, err)
			}
			if got := stateOf(t, again); !reflect.DeepEqual(got, want) {
				t.Fatalf("crash at operation %d, then a save (retry %v): loaded\n%+v\nwant\n%+v", n, retry, got, want)
			}
		}
	}
}

// TestSaveCommitsEachEntryWithItsBytes: a replica rewritten in place over
// and over, in two versions of different sizes, while the directory is
// saved again and again. Every committed manifest entry names files that
// hold that entry's bytes: the size it records, verified by their own
// checksums.
func TestSaveCommitsEachEntryWithItsBytes(t *testing.T) {
	saves := 3000
	if testing.Short() {
		saves = 300
	}
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	id, stats, err := c.WriteBlock("/f", randBlock(2_000, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := stats.PipelineNodes[0]
	versions := [][]byte{randBlock(2_000, 1), randBlock(2_600, 2)}
	dir := t.TempDir()
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := c.ReplaceReplica(id, node, versions[i%2], ReplicaInfo{SortColumn: i % 2}); err != nil {
				done <- err
				return
			}
		}
	}()
	mismatches := 0
	for i := 0; i < saves; i++ {
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		for _, rp := range m.Replicas {
			if _, _, err := readReplica(dir, rp); err != nil {
				mismatches++
				t.Logf("save %d: block %d on node %d: %v", i, rp.Block, rp.Node, err)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if mismatches != 0 {
		t.Fatalf("%d committed entries over %d saves name bytes not their own", mismatches, saves)
	}
}
