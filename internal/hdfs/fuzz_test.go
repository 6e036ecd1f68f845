package hdfs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fuzzcheck"
)

// fuzzLoadData is the one replica file FuzzLoad's directories hold: block 0
// on node 0, three checksum chunks long.
var fuzzLoadData = randBlock(3*ChunkSize-100, 41)

// fuzzSeedDir saves a one-node cluster holding fuzzLoadData as block 0 and
// returns its manifest and checksum file.
func fuzzSeedDir(f *testing.F) (manifest, sums []byte) {
	c, err := NewCluster(1)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := c.WriteBlock("/f", fuzzLoadData, 1, nil); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := c.Save(dir); err != nil {
		f.Fatal(err)
	}
	if manifest, err = os.ReadFile(filepath.Join(dir, "manifest.json")); err != nil {
		f.Fatal(err)
	}
	if sums, err = os.ReadFile(replicaSumPath(dir, 0, 0)); err != nil {
		f.Fatal(err)
	}
	return manifest, sums
}

// FuzzLoad: whatever the manifest and the checksum file say, loading the
// directory yields a cluster or an error, never a panic, and allocates in
// proportion to the bytes it holds — a node count, block list or replica
// list read from a corrupt manifest must never become an allocation size.
// A loaded cluster hands out no block ID the manifest uses: it takes one
// more block, and every listed block still reads. The directory holds the
// manifest and block 0's data file on node 0 with the fuzzed checksum file
// beside it, in both the primary and the alternate pair; the manifest may
// name them or not.
func FuzzLoad(f *testing.F) {
	manifest, sums := fuzzSeedDir(f)
	f.Add(manifest, sums)
	f.Add(manifest, sums[:len(sums)-1])
	f.Add(manifest, append(sums[:4:4], sums...))
	f.Add([]byte(`{"nodes": 2000000000}`), sums)
	f.Add([]byte(`{"nodes": 2, "replicas": [{"block": 0, "node": 1}]}`), sums)
	f.Add([]byte(`{"nodes": 1, "files": {"/f": [0, 0, -1]}, "replicas": [{"block": 0, "node": 0}, {"block": 0, "node": 0}]}`), sums)
	f.Add([]byte(`{"nodes": -1}`), []byte{})
	size := fmt.Sprint(len(fuzzLoadData))
	f.Add([]byte(`{"nodes": 1, "next_block": 0, "files": {"/f": [0]}, "replicas": [{"block": 0, "node": 0, "info": {"Size": `+size+`, "SortColumn": 2, "HasIndex": true, "Adaptive": {"File": "/f", "Charged": 100, "Added": true, "Touches": 3, "LastTouch": 9}}}]}`), sums)
	f.Add([]byte(`{"nodes": 1, "next_block": 0, "files": {"/f": [0]}, "replicas": [{"block": 0, "node": 0, "info": {"Size": `+size+`, "SortColumn": -1}, "alt": true}]}`), sums)
	f.Add([]byte(`{"nodes": 1, "next_block": 9223372036854775807, "files": {"/f": [0]}, "replicas": [{"block": 0, "node": 0, "info": {"Size": `+size+`}}]}`), sums)
	f.Fuzz(func(t *testing.T, manifest, sums []byte) {
		dir := t.TempDir()
		node0 := filepath.Dir(replicaDataPath(dir, 0, 0))
		if err := os.MkdirAll(node0, 0o755); err != nil {
			t.Fatal(err)
		}
		altData, altSums := replicaFiles(dir, 0, 0, true)
		for path, b := range map[string][]byte{
			filepath.Join(dir, "manifest.json"): manifest,
			replicaDataPath(dir, 0, 0):          fuzzLoadData,
			replicaSumPath(dir, 0, 0):           sums,
			altData:                             fuzzLoadData,
			altSums:                             sums,
		} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var c *Cluster
		fuzzcheck.BoundedAlloc(t, len(manifest)+len(sums)+len(fuzzLoadData), func() {
			c, _ = Load(dir)
		})
		if c == nil {
			return
		}
		if n := c.NumNodes(); n < 1 || n > MaxNodes {
			t.Fatalf("loaded a cluster of %d datanodes", n)
		}
		readAll := func() {
			for _, file := range c.NameNode().Files() {
				bs, err := c.NameNode().FileBlocks(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bs {
					for _, node := range c.NameNode().GetHosts(b) {
						if _, err := c.ReadBlockFrom(node, b); err != nil {
							t.Fatalf("block %d on node %d loaded but does not read: %v", b, node, err)
						}
					}
				}
			}
		}
		readAll()
		if _, _, err := c.WriteBlock("/fuzz-more", []byte("one more block"), 1, nil); err != nil {
			t.Fatalf("a loaded cluster refused one more block: %v", err)
		}
		readAll()
	})
}
