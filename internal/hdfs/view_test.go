package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestRangeVerifiesTheCoveringChunks: a range read checks exactly the
// chunks that overlap the requested bytes — a flipped bit elsewhere in the
// replica is invisible to it, a flipped bit in any overlapped chunk (also
// outside the requested bytes) fails it with an error naming node, block
// and chunk, and the failure is counted.
func TestRangeVerifiesTheCoveringChunks(t *testing.T) {
	c, _ := NewCluster(3)
	data := randBlock(10*ChunkSize+100, 3)
	id, stats, err := c.WriteBlock("/f", data, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := stats.PipelineNodes[0]
	dn, _ := c.DataNode(node)
	const flipped = 5*ChunkSize + 17 // in chunk 5
	if err := dn.CorruptByte(id, flipped); err != nil {
		t.Fatal(err)
	}
	v, err := c.OpenBlockFrom(node, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != len(data) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(data))
	}

	for _, tc := range []struct {
		off, n, chunks int
		corrupt        bool
	}{
		{0, 14, 1, false},                            // a header's worth
		{100, 4 * ChunkSize, 5, false},               // chunks 0-4, ends just short of chunk 5
		{6 * ChunkSize, 4*ChunkSize + 100, 5, false}, // chunks 6-10, to the last byte
		{5*ChunkSize - 1, 1, 1, false},               // last byte of chunk 4
		{5 * ChunkSize, 1, 1, true},                  // one clean byte of the corrupt chunk
		{flipped, 1, 1, true},                        // the flipped byte itself
		{4*ChunkSize + 500, 13, 2, true},             // straddles into chunk 5: stops there
		{0, len(data), 6, true},                      // whole replica: chunks 0-5, then stop
	} {
		chunks0, fails0 := dn.ChunksVerified(), dn.ChecksumFailures()
		got, err := v.Range(tc.off, tc.n)
		if checked := dn.ChunksVerified() - chunks0; checked != int64(tc.chunks) {
			t.Errorf("Range(%d,%d) verified %d chunks, want %d", tc.off, tc.n, checked, tc.chunks)
		}
		if !tc.corrupt {
			if err != nil {
				t.Errorf("Range(%d,%d) away from the flipped byte: %v", tc.off, tc.n, err)
			} else if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
				t.Errorf("Range(%d,%d) returned other bytes than were written", tc.off, tc.n)
			} else if cap(got) != len(got) {
				t.Errorf("Range(%d,%d) has %d bytes of spare capacity over stored bytes", tc.off, tc.n, cap(got)-len(got))
			}
			continue
		}
		if !errors.Is(err, ErrCorruptChunk) {
			t.Errorf("Range(%d,%d) over the corrupt chunk: err = %v, want ErrCorruptChunk", tc.off, tc.n, err)
		} else if !strings.Contains(err.Error(), "block 0 chunk 5") {
			t.Errorf("error %q does not name block and chunk", err)
		}
		if dn.ChecksumFailures() != fails0+1 {
			t.Errorf("Range(%d,%d): ChecksumFailures went %d -> %d, want +1", tc.off, tc.n, fails0, dn.ChecksumFailures())
		}
	}
	for _, bad := range [][2]int{{-1, 4}, {0, -1}, {len(data) - 3, 4}} {
		if _, err := v.Range(bad[0], bad[1]); err == nil || errors.Is(err, ErrCorruptChunk) {
			t.Errorf("Range(%d,%d) out of bounds: err = %v", bad[0], bad[1], err)
		}
	}
	// The whole-replica read is the same loop over every chunk.
	if _, err := c.ReadBlockFrom(node, id); !errors.Is(err, ErrCorruptChunk) {
		t.Errorf("ReadBlockFrom the corrupted replica: err = %v, want ErrCorruptChunk", err)
	}
}

// TestViewIsASnapshot: a view keeps reading the replica it opened through
// everything that can happen to the stored copy afterwards; a fresh open
// sees the new state.
func TestViewIsASnapshot(t *testing.T) {
	c, _ := NewCluster(3)
	a, b := randBlock(5000, 1), randBlock(7000, 2)
	id, stats, err := c.WriteBlock("/f", a, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := stats.PipelineNodes[0]
	dn, _ := c.DataNode(node)
	open := func() ReplicaView {
		t.Helper()
		v, err := c.OpenBlockFrom(node, id)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	reads := func(v ReplicaView, want []byte, when string) {
		t.Helper()
		got, err := v.Range(0, v.Len())
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("view %s: %d bytes, err %v; want the %d bytes it opened", when, len(got), err, len(want))
		}
	}

	old := open()
	held, _ := old.Range(1000, 2000)
	if err := dn.CorruptByte(id, 1500); err != nil {
		t.Fatal(err)
	}
	reads(old, a, "opened before CorruptByte")
	fresh := open()
	if _, err := fresh.Range(0, fresh.Len()); !errors.Is(err, ErrCorruptChunk) {
		t.Errorf("view opened after CorruptByte: err = %v, want ErrCorruptChunk", err)
	}
	if err := dn.CorruptByte(id, 1500); err != nil { // flip back
		t.Fatal(err)
	}
	reads(open(), a, "opened after the bit was flipped back")

	if err := c.ReplaceReplica(id, node, b, ReplicaInfo{SortColumn: 1, HasIndex: true}); err != nil {
		t.Fatal(err)
	}
	reads(old, a, "opened before ReplaceReplica")
	replaced := open()
	reads(replaced, b, "opened after ReplaceReplica")

	if err := c.DropReplica(id, node); err != nil {
		t.Fatal(err)
	}
	reads(replaced, b, "opened before DropReplica")
	if _, err := c.OpenBlockFrom(node, id); err == nil {
		t.Error("opened a dropped replica")
	}

	if err := c.StoreAdditionalReplica(id, node, a, ReplicaInfo{SortColumn: -1}); err != nil {
		t.Fatal(err)
	}
	restored := open()
	if err := c.KillNode(node); err != nil {
		t.Fatal(err)
	}
	reads(restored, a, "opened before KillNode")
	if _, err := c.OpenBlockFrom(node, id); err == nil {
		t.Error("opened a replica on a dead node")
	}
	if err := c.ReviveNode(node); err != nil {
		t.Fatal(err)
	}
	reads(open(), a, "opened after ReviveNode")

	if !bytes.Equal(held, a[1000:3000]) {
		t.Error("bytes returned by Range changed under the caller")
	}
}

// TestViewsUnderConcurrentMutation is the snapshot contract under the race
// detector: readers open views and read them in two steps while a mutator
// corrupts, replaces, drops, re-stores, kills and revives the replica.
// Whatever interleaving happens, a view whose reads all succeed has read
// one stored version in full — never a mix of two — and no slice a reader
// holds is ever written.
func TestViewsUnderConcurrentMutation(t *testing.T) {
	c, _ := NewCluster(3)
	a, b := randBlock(40*ChunkSize+7, 1), randBlock(55*ChunkSize+300, 2)
	id, stats, err := c.WriteBlock("/f", a, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := stats.PipelineNodes[0]
	dn, _ := c.DataNode(node)
	rounds := 300
	if testing.Short() {
		rounds = 60
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var held, heldCopy []byte
			for i := 0; ; i++ {
				select {
				case <-done:
					if !bytes.Equal(held, heldCopy) {
						t.Errorf("reader %d: a held Range slice was written", r)
					}
					return
				default:
				}
				v, err := c.OpenBlockFrom(node, id)
				if err != nil {
					continue // dead or dropped right now
				}
				cut := (i*977 + r*131) % v.Len()
				head, err := v.Range(0, cut)
				if err != nil {
					if !errors.Is(err, ErrCorruptChunk) {
						t.Errorf("reader %d: %v", r, err)
					}
					continue
				}
				runtime.Gosched() // let the mutator in between the two reads
				tail, err := v.Range(cut, v.Len()-cut)
				if err != nil {
					if !errors.Is(err, ErrCorruptChunk) {
						t.Errorf("reader %d: %v", r, err)
					}
					continue
				}
				want := a
				if v.Len() == len(b) {
					want = b
				}
				if !bytes.Equal(head, want[:cut]) || !bytes.Equal(tail, want[cut:]) {
					t.Errorf("reader %d: a %d-byte view read a mix of versions", r, v.Len())
					return
				}
				if held == nil {
					held, heldCopy = tail, append([]byte(nil), tail...)
				}
			}
		}(r)
	}

	var mutErr error
	for i := 0; i < rounds; i++ {
		var err error
		switch i % 4 {
		case 0:
			off := (i * 613) % len(a)
			if err = dn.CorruptByte(id, off); err == nil {
				err = dn.CorruptByte(id, off)
			}
		case 1:
			if err = c.ReplaceReplica(id, node, b, ReplicaInfo{SortColumn: 1, HasIndex: true}); err == nil {
				err = c.ReplaceReplica(id, node, a, ReplicaInfo{SortColumn: -1})
			}
		case 2:
			if err = c.DropReplica(id, node); err == nil {
				err = c.StoreAdditionalReplica(id, node, a, ReplicaInfo{SortColumn: -1})
			}
		case 3:
			if err = c.KillNode(node); err == nil {
				err = c.ReviveNode(node)
			}
		}
		if err != nil {
			mutErr = fmt.Errorf("mutation %d: %v", i, err)
			break
		}
		runtime.Gosched()
	}
	close(done)
	readers.Wait()
	if mutErr != nil {
		t.Fatal(mutErr)
	}

	// The dust has settled on version a, clean.
	if got, err := c.ReadBlockFrom(node, id); err != nil || !bytes.Equal(got, a) {
		t.Errorf("after the storm: %d bytes, err %v; want the original %d", len(got), err, len(a))
	}
}
