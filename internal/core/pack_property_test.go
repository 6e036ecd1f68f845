package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestPackingPolicyProperty is the packing-policy property test: under
// random kill/revive sequences, every split policy (per-block scan,
// packed scan, per-block indexed, HailSplitting, each with and without
// PackScans) must
//
//  1. cover each input block exactly once — no duplicates, no drops;
//  2. never hand the engine a dead-only location list (every block keeps
//     at least one alive replica in these sequences);
//  3. execute to the same row multiset as per-block execution on the
//     healthy cluster — all replicas store the same logical block (§2.3),
//     so neither packing nor failover may change a single result row.
func TestPackingPolicyProperty(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cluster, _, sum, _ := uvFixture(t, 3000, workload.UserVisitsOptions{NeedleEvery: 400})
			queries := []*query.Query{
				workload.BobQueries()[0].Query, // indexed attribute
				scanOnlyQuery(),                // never-indexed attribute
			}
			policies := []InputFormat{
				{},
				{PackScans: true},
				{Splitting: true, SplitsPerNode: 2},
				{Splitting: true, SplitsPerNode: 2, PackScans: true},
			}

			// Healthy-cluster references, one per query, from the plain
			// per-block policy.
			refs := make([]map[string]int, len(queries))
			for qi, q := range queries {
				refs[qi] = outputMultiset(runHailQuery(t, cluster, "/uv", q, false))
				if len(refs[qi]) == 0 {
					t.Fatalf("query %d returned nothing on the healthy cluster", qi)
				}
			}

			check := func(step string) {
				for qi, q := range queries {
					for pi, pol := range policies {
						f := pol
						f.Cluster, f.Query = cluster, q
						splits, _, err := f.Splits("/uv", nil)
						if err != nil {
							t.Fatalf("%s q%d p%d: %v", step, qi, pi, err)
						}
						assertCoverage(t, splits, sum.BlockIDs)
						assertAliveLocations(t, cluster, splits)

						e := &mapred.Engine{Cluster: cluster}
						res, err := e.Run(&mapred.Job{
							Name: "prop", File: "/uv", Input: &f, MapBatch: workload.PassthroughMapBatch,
						})
						if err != nil {
							t.Fatalf("%s q%d p%d: %v", step, qi, pi, err)
						}
						got := outputMultiset(res)
						if len(got) != len(refs[qi]) {
							t.Fatalf("%s q%d p%d: %d distinct rows, want %d", step, qi, pi, len(got), len(refs[qi]))
						}
						for k, v := range refs[qi] {
							if got[k] != v {
								t.Fatalf("%s q%d p%d: result diverged for %q", step, qi, pi, k)
							}
						}
					}
				}
			}

			// Random kill/revive walk. With 4 nodes and replication 3, any
			// 2 dead nodes still leave every block an alive replica.
			dead := map[hdfs.NodeID]bool{}
			for step := 0; step < 4; step++ {
				if len(dead) < 2 && (len(dead) == 0 || rng.Intn(2) == 0) {
					for {
						n := hdfs.NodeID(rng.Intn(cluster.NumNodes()))
						if !dead[n] {
							if err := cluster.KillNode(n); err != nil {
								t.Fatal(err)
							}
							dead[n] = true
							break
						}
					}
				} else {
					for n := range dead {
						if err := cluster.ReviveNode(n); err != nil {
							t.Fatal(err)
						}
						delete(dead, n)
						break
					}
				}
				check(fmt.Sprintf("step%d(dead=%d)", step, len(dead)))
			}
		})
	}
}

// assertRegisteredPins is the ghost-replica regression: every replica pin
// a split carries must point at a node the namenode directory currently
// lists as a holder of that block — a pin to a dropped (or never-held)
// replica is a promise the reader cannot keep.
func assertRegisteredPins(t *testing.T, cluster *hdfs.Cluster, splits []mapred.Split) {
	t.Helper()
	nn := cluster.NameNode()
	for _, s := range splits {
		for i, b := range s.Blocks {
			n := s.Pin(i)
			if _, ok := nn.ReplicaInfo(b, n); n == hdfs.NoReplica || ok {
				continue
			}
			t.Errorf("block %d pinned to node %d, which the directory does not list as a holder", b, n)
		}
	}
}

// TestDropReplicaCacheProperty extends the kill/revive packing property
// test with replica drops — the primitive adaptive eviction is built on.
// Under random drop/kill/revive sequences interleaved with cached packed
// execution:
//
//  1. after any DropReplica, no qcache entry survives for the dropped
//     block — the generation bump's change hook must purge them;
//  2. packed-scan pinning (including the pins of the engine's cache
//     probe) never selects a dropped replica — no ghost pins;
//  3. cached execution stays multiset-identical to the healthy-cluster
//     uncached reference throughout.
func TestDropReplicaCacheProperty(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + seed)))
			cluster, _, sum, _ := uvFixture(t, 3000, workload.UserVisitsOptions{NeedleEvery: 400})
			nn := cluster.NameNode()
			q := scanOnlyQuery()
			reference := outputMultiset(runHailQuery(t, cluster, "/uv", q, false))

			cache := qcache.New(0)
			nn.SetReplicaChangeHook(cache.InvalidateBlock)
			defer nn.SetReplicaChangeHook(nil)

			runCached := func(name string) *mapred.JobResult {
				e := &mapred.Engine{Cluster: cluster, Cache: cache}
				res, err := e.Run(&mapred.Job{
					Name: name, File: "/uv",
					Input: &InputFormat{
						Cluster: cluster, Query: q,
						Splitting: true, SplitsPerNode: 2, PackScans: true,
					},
					MapBatch: workload.PassthroughMapBatch, MapSig: workload.PassthroughMapSig,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res
			}

			aliveHolders := func(b hdfs.BlockID, skip hdfs.NodeID) int {
				n := 0
				for _, h := range nn.GetHosts(b) {
					if h == skip {
						continue
					}
					if dn, err := cluster.DataNode(h); err == nil && dn.Alive() {
						n++
					}
				}
				return n
			}
			// probe is the packing probe a cached engine hands the
			// planner: the cache's replica for the block's current key.
			sig, _ := (&InputFormat{Cluster: cluster, Query: q}).QuerySignature()
			probe := func(b hdfs.BlockID) (hdfs.NodeID, bool) {
				return cache.CachedReplica(mapred.CacheKey{
					File: "/uv", Block: b, Gen: nn.Generation(b),
					Query: sig, MapSig: workload.PassthroughMapSig,
				})
			}
			// checkSplits holds the splits the planner produces under the
			// cache probe — before any Fallback repair — to the
			// invariants, and then the splits a cached job executed.
			checkSplits := func(step string) {
				in := &InputFormat{
					Cluster: cluster, Query: q,
					Splitting: true, SplitsPerNode: 2, PackScans: true,
				}
				planned, _, err := in.Splits("/uv", probe)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				res := runCached(step)
				executed := make([]mapred.Split, len(res.Tasks))
				for i, task := range res.Tasks {
					executed[i] = task.Split
				}
				for _, splits := range [][]mapred.Split{planned, executed} {
					assertCoverage(t, splits, sum.BlockIDs)
					assertAliveLocations(t, cluster, splits)
					assertRegisteredPins(t, cluster, splits)
				}
			}

			dead := map[hdfs.NodeID]bool{}
			for step := 0; step < 6; step++ {
				// Populate (or re-populate) the cache and gate equivalence.
				got := outputMultiset(runCached(fmt.Sprintf("cached-step%d", step)))
				if len(got) != len(reference) {
					t.Fatalf("step %d: %d distinct rows, want %d", step, len(got), len(reference))
				}
				for k, v := range reference {
					if got[k] != v {
						t.Fatalf("step %d: cached result diverged for %q", step, k)
					}
				}

				switch op := rng.Intn(3); {
				case op == 0: // DropReplica on a block that stays ≥2-alive
					var b hdfs.BlockID
					var victim hdfs.NodeID = -1
					for try := 0; try < 20 && victim == -1; try++ {
						b = sum.BlockIDs[rng.Intn(len(sum.BlockIDs))]
						hosts := nn.GetHosts(b)
						n := hosts[rng.Intn(len(hosts))]
						if aliveHolders(b, n) >= 2 {
							victim = n
						}
					}
					if victim == -1 {
						continue // replication too thin everywhere; skip the op
					}
					if err := cluster.DropReplica(b, victim); err != nil {
						t.Fatalf("step %d: DropReplica(%d,%d): %v", step, b, victim, err)
					}
					// Invariant 1: nothing cached survives for the block.
					if n := cache.BlockEntries(b); n != 0 {
						t.Fatalf("step %d: %d cache entries survive for dropped block %d", step, n, b)
					}
					// Invariant 2: no split pins the dropped replica.
					checkSplits(fmt.Sprintf("step%d-drop", step))
				case op == 1 && len(dead) == 0: // kill, if every block survives it
					n := hdfs.NodeID(rng.Intn(cluster.NumNodes()))
					safe := true
					for _, b := range sum.BlockIDs {
						if aliveHolders(b, n) == 0 {
							safe = false
							break
						}
					}
					if !safe {
						continue
					}
					if err := cluster.KillNode(n); err != nil {
						t.Fatal(err)
					}
					dead[n] = true
					checkSplits(fmt.Sprintf("step%d-kill", step))
					// The kill bumps the node's blocks' generations, so the
					// cache no longer names it; a probe that still does must
					// not pin anything there either.
					stale := func(hdfs.BlockID) (hdfs.NodeID, bool) { return n, true }
					in := &InputFormat{
						Cluster: cluster, Query: q,
						Splitting: true, SplitsPerNode: 2, PackScans: true,
					}
					splits, _, err := in.Splits("/uv", stale)
					if err != nil {
						t.Fatalf("step %d stale probe: %v", step, err)
					}
					assertCoverage(t, splits, sum.BlockIDs)
					assertAliveLocations(t, cluster, splits)
				default: // revive
					for n := range dead {
						if err := cluster.ReviveNode(n); err != nil {
							t.Fatal(err)
						}
						delete(dead, n)
						break
					}
					checkSplits(fmt.Sprintf("step%d-revive", step))
				}
			}
			// Final end-to-end pass over whatever topology remains.
			got := outputMultiset(runCached("cached-final"))
			for k, v := range reference {
				if got[k] != v {
					t.Fatalf("final cached result diverged for %q", k)
				}
			}
		})
	}
}
