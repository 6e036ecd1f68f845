package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hdfs"
	"repro/internal/pax"
	"repro/internal/schema"
)

// A HAIL block replica as stored on a datanode is the sorted PAX block
// followed by its index, with a small frame so the record reader can find
// both (the paper's "HAIL Block" with Block Metadata and Index Metadata,
// Figure 1):
//
//	magic   "HLBK"
//	version uint16
//	paxLen  uint32
//	ixLen   uint32 (0 = no index)
//	pax bytes, index bytes
const (
	frameMagic   = "HLBK"
	frameVersion = 1
	frameHeader  = 4 + 2 + 4 + 4
)

// FrameReplica assembles the stored form of one replica. indexData may be
// nil for unsorted replicas.
func FrameReplica(paxData, indexData []byte) []byte {
	out := appendFrameHeader(make([]byte, 0, frameHeader+len(paxData)+len(indexData)), len(paxData), len(indexData))
	return append(append(out, paxData...), indexData...)
}

func appendFrameHeader(out []byte, paxLen, ixLen int) []byte {
	out = append(out, frameMagic...)
	out = binary.LittleEndian.AppendUint16(out, frameVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(paxLen))
	return binary.LittleEndian.AppendUint32(out, uint32(ixLen))
}

// parseFrameHeader decodes the frame header of a replica of the given
// total size and returns the lengths of its two sections. It is the one
// decoder of the header: ParseFrame applies it to a replica held in
// memory, the record reader to the first bytes of a replica view.
func parseFrameHeader(hdr []byte, total int) (paxLen, ixLen int, err error) {
	if len(hdr) < frameHeader {
		return 0, 0, fmt.Errorf("hail: replica frame too short (%d bytes)", len(hdr))
	}
	if string(hdr[:4]) != frameMagic {
		return 0, 0, fmt.Errorf("hail: bad replica frame magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != frameVersion {
		return 0, 0, fmt.Errorf("hail: unsupported replica frame version %d", v)
	}
	paxLen = int(binary.LittleEndian.Uint32(hdr[6:]))
	ixLen = int(binary.LittleEndian.Uint32(hdr[10:]))
	if frameHeader+paxLen+ixLen != total {
		return 0, 0, fmt.Errorf("hail: replica frame length mismatch: header says %d+%d, have %d payload bytes",
			paxLen, ixLen, total-frameHeader)
	}
	return paxLen, ixLen, nil
}

// ParseFrame splits a stored replica back into PAX and index bytes.
func ParseFrame(data []byte) (paxData, indexData []byte, err error) {
	paxLen, ixLen, err := parseFrameHeader(data, len(data))
	if err != nil {
		return nil, nil, err
	}
	paxData = data[frameHeader : frameHeader+paxLen]
	if ixLen > 0 {
		indexData = data[frameHeader+paxLen:]
	}
	return paxData, indexData, nil
}

// openFrame reads the two headers every reader of a stored replica starts
// with — the frame header and, through it, the PAX header — and returns
// the PAX reader over the view and where the index section sits.
func openFrame(view *hdfs.ReplicaView) (reader *pax.Reader, ixOff, ixLen int, err error) {
	total := view.Len()
	hdr, err := view.Range(0, min(frameHeader, total))
	if err != nil {
		return nil, 0, 0, err
	}
	paxLen, ixLen, err := parseFrameHeader(hdr, total)
	if err != nil {
		return nil, 0, 0, err
	}
	reader, err = pax.NewReaderAt(view, frameHeader, paxLen)
	return reader, frameHeader + paxLen, ixLen, err
}

// FileSchema returns the schema of a HAIL file: every block carries it in
// its Block Metadata (§3.1), so the two headers of the first block's
// replica are all it reads. Replicas are tried in ReplicaOrder(b, 0); a
// dead node, a dropped replica or a corrupt header chunk moves on to the
// next holder, as a whole-block ReadBlockAny would.
func FileSchema(cluster *hdfs.Cluster, file string) (*schema.Schema, error) {
	blocks, err := cluster.NameNode().FileBlocks(file)
	if err != nil {
		return nil, err
	}
	b := blocks[0] // a file exists from its first AddBlock on
	var lastErr error
	for _, h := range cluster.ReplicaOrder(b, 0) {
		view, err := cluster.OpenBlockFrom(h, b)
		if err != nil {
			lastErr = err
			continue
		}
		reader, _, _, err := openFrame(&view)
		if err == nil {
			return reader.Schema(), nil
		}
		if !errors.Is(err, hdfs.ErrCorruptChunk) {
			return nil, fmt.Errorf("hail: block %d on node %d: %w", b, h, err)
		}
		lastErr = err
	}
	if lastErr == nil {
		return nil, fmt.Errorf("hail: block %d has no replicas", b)
	}
	return nil, fmt.Errorf("hail: all replicas of block %d unreadable: %w", b, lastErr)
}
