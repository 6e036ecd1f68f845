// Package hdfs is an in-process reimplementation of the HDFS machinery HAIL
// modifies (paper §3): a namenode with block and replica directories,
// datanodes with local block stores, and the packet/chunk/checksum upload
// pipeline with its acknowledgement chain.
//
// It reproduces the protocol at the level the paper describes: blocks are
// cut into 512-byte chunks, chunks are collected into packets of up to
// 64 KB with one CRC-32 checksum per chunk, packets flow client → DN1 →
// DN2 → DN3, only the last datanode in the chain verifies checksums, and
// acknowledgements travel back through the chain with each datanode
// appending its ID. Two upload modes exist: classic HDFS (flush chunk data
// and checksums as packets arrive) and HAIL (assemble the whole block in
// memory, transform it per replica — sort + index —, recompute checksums,
// then flush; §3.2). As on a real cluster, the pipeline's datanodes build
// their replicas concurrently.
package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// ErrCorruptChunk is wrapped by every error that reports stored bytes
// failing their chunk checksum, so readers can tell a bad copy (fail over
// to another replica) from a malformed one.
var ErrCorruptChunk = errors.New("stored chunk corrupt")

// Chunk and packet framing constants (paper §3.2: "the data is further
// partitioned into chunks of constant size 512B ... In total a packet has
// a size of up to 64KB").
const (
	ChunkSize       = 512
	ChunksPerPacket = 126 // 126 × (512 + 4) ≈ 64 KB per packet
)

// Packet is a sequence of chunks plus a checksum for each chunk.
type Packet struct {
	Seq  int      // packet sequence number within the block, from 0
	Data []byte   // concatenated chunk payloads (last chunk may be short)
	Sums []uint32 // one CRC-32 per chunk
	Last bool     // marks the final packet of the block
}

// numChunks returns how many 512-byte chunks cover n bytes.
func numChunks(n int) int { return (n + ChunkSize - 1) / ChunkSize }

// checksumChunks computes one CRC-32 (IEEE) per 512-byte chunk of data.
func checksumChunks(data []byte) []uint32 {
	sums := make([]uint32, 0, numChunks(len(data)))
	for off := 0; off < len(data); off += ChunkSize {
		end := off + ChunkSize
		if end > len(data) {
			end = len(data)
		}
		sums = append(sums, crc32.ChecksumIEEE(data[off:end]))
	}
	return sums
}

// BuildPackets frames a block into packets, computing chunk checksums.
// An empty block still produces one empty final packet so the ACK chain
// and flush semantics run.
func BuildPackets(block []byte) []Packet {
	payload := ChunksPerPacket * ChunkSize
	var pkts []Packet
	for off := 0; ; off += payload {
		end := off + payload
		if end >= len(block) {
			end = len(block)
		}
		data := block[off:end]
		pkts = append(pkts, Packet{
			Seq:  len(pkts),
			Data: data,
			Sums: checksumChunks(data),
			Last: end == len(block),
		})
		if end == len(block) {
			return pkts
		}
	}
}

// Verify recomputes the chunk checksums of the packet and compares them to
// the carried ones. This is what the last datanode in the pipeline does for
// every packet (§3.2 step 9).
func (p *Packet) Verify() error {
	if want := numChunks(len(p.Data)); want != len(p.Sums) {
		return fmt.Errorf("hdfs: packet %d carries %d checksums for %d chunks", p.Seq, len(p.Sums), want)
	}
	if bad, _ := firstCorruptChunk(p.Data, p.Sums, 0, len(p.Data)); bad >= 0 {
		return fmt.Errorf("hdfs: packet %d chunk %d checksum mismatch", p.Seq, bad)
	}
	return nil
}

// Reassemble appends the packet payloads to dst, putting the block back
// together, and validates sequence numbers. This is the in-memory
// reassembly every HAIL datanode performs before sorting (§3.2 step 6).
func Reassemble(dst []byte, pkts []Packet) ([]byte, error) {
	total := 0
	for i, p := range pkts {
		if p.Seq != i {
			return nil, fmt.Errorf("hdfs: packet out of order: got seq %d at position %d", p.Seq, i)
		}
		if p.Last != (i == len(pkts)-1) {
			return nil, fmt.Errorf("hdfs: misplaced last-packet marker at seq %d", p.Seq)
		}
		total += len(p.Data)
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("hdfs: no packets")
	}
	out := slices.Grow(dst, total)
	for i := range pkts {
		out = append(out, pkts[i].Data...)
	}
	return out, nil
}

// firstCorruptChunk is the one chunk-verification loop: it recomputes the
// CRC of every chunk overlapping data[off:off+n] and compares it with the
// chunk's entry in sums. It returns the index of the first chunk that does
// not match (or has no entry), -1 if all do, and how many it checked.
// Packet.Verify, VerifyStored and ReplicaView.Range all come here, so a
// whole-replica read and a range read cannot disagree about what
// "verified" means.
func firstCorruptChunk(data []byte, sums []uint32, off, n int) (bad, checked int) {
	for c := off / ChunkSize; c*ChunkSize < off+n; c++ {
		end := (c + 1) * ChunkSize
		if end > len(data) {
			end = len(data)
		}
		checked++
		if c >= len(sums) || crc32.ChecksumIEEE(data[c*ChunkSize:end]) != sums[c] {
			return c, checked
		}
	}
	return -1, checked
}

// VerifyStored checks stored block bytes against a stored checksum file
// (one CRC-32 per 512-byte chunk) in full, as Load does for every replica
// it adopts.
func VerifyStored(data []byte, sums []uint32) error {
	if want := numChunks(len(data)); want != len(sums) {
		return fmt.Errorf("hdfs: checksum file has %d entries for %d chunks", len(sums), want)
	}
	if bad, _ := firstCorruptChunk(data, sums, 0, len(data)); bad >= 0 {
		return fmt.Errorf("hdfs: chunk %d: %w", bad, ErrCorruptChunk)
	}
	return nil
}
