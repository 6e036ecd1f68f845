package core

import (
	"encoding/binary"
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
// with — the frame header and, through it, the PAX header — opening reader
// over the view, and returns where the index section sits.
func openFrame(view *hdfs.ReplicaView, reader *pax.Reader) (ixOff, ixLen int, err error) {
	total := view.Len()
	hdr, err := view.Range(0, min(frameHeader, total))
	if err != nil {
		return 0, 0, err
	}
	paxLen, ixLen, err := parseFrameHeader(hdr, total)
	if err != nil {
		return 0, 0, err
	}
	return frameHeader + paxLen, ixLen, reader.OpenAt(view, frameHeader, paxLen)
}

// FileSchema returns the schema of a HAIL file: every block carries it in
// its Block Metadata (§3.1), so the two headers of the first block's
// replica are all it reads, through the cluster's failover loop
// (hdfs.Cluster.ReadFrom) from node 0.
func FileSchema(cluster *hdfs.Cluster, file string) (*schema.Schema, error) {
	blocks, err := cluster.NameNode().FileBlocks(file)
	if err != nil {
		return nil, err
	}
	b := blocks[0] // a file exists from its first AddBlock on
	var reader pax.Reader
	if _, err := cluster.ReadFrom(b, hdfs.NoReplica, 0, func(_ hdfs.NodeID, v hdfs.ReplicaView) error {
		_, _, err := openFrame(&v, &reader)
		return err
	}); err != nil {
		return nil, fmt.Errorf("hail: schema of %s: %w", file, err)
	}
	return reader.Schema(), nil
}
