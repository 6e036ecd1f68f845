package pax

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/schema"
)

// Micro-benchmarks for the PAX block operations that sit on HAIL's upload
// hot path: append, sort (with full-column permutation), serialization and
// range reads. Run with -benchmem to see allocation behaviour.

func benchBlock(n int) *Block {
	rng := rand.New(rand.NewSource(42))
	b := NewBlock(testSchema)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(testRow(rng)); err != nil {
			panic(err)
		}
	}
	return b
}

func BenchmarkAppendRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]schema.Row, 1024)
	for i := range rows {
		rows[i] = testRow(rng)
	}
	b.ResetTimer()
	blk := NewBlock(testSchema)
	for i := 0; i < b.N; i++ {
		if err := blk.AppendRow(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSort(b *testing.B) {
	// The per-replica in-memory sort of §3.5: "two or three seconds" for
	// a 64 MB block on the paper's hardware.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		blk := benchBlock(64 * 1024)
		b.StartTimer()
		if err := blk.Sort(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	blk := benchBlock(32 * 1024)
	data, err := blk.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	blk := benchBlock(32 * 1024)
	data, err := blk.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFixedColumnRange(b *testing.B) {
	blk := benchBlock(32 * 1024)
	data, _ := blk.Marshal()
	r, err := NewReader(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadColumnRange(0, 1024, 9*1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadStringColumnRange(b *testing.B) {
	blk := benchBlock(32 * 1024)
	data, _ := blk.Marshal()
	r, err := NewReader(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadColumnRange(4, 1024, 9*1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTerminatorWalk is the evidence behind longTerm and skipChunk: a
// cursor decoding 1,024 string values of one length, its terminators found
// by the byte loop and by bytes.IndexByte, and the same cursor skipping
// them (Next with a nil vector, counted a chunk at a time). One op is the
// whole 1,024 values.
func BenchmarkTerminatorWalk(b *testing.B) {
	for _, size := range []int{3, 8, 12, 24, 45} {
		raw := bytes.Repeat(append(bytes.Repeat([]byte{'v'}, size), 0), PartitionSize)
		for _, long := range []bool{false, true} {
			walk := "loop"
			if long {
				walk = "IndexByte"
			}
			b.Run(fmt.Sprintf("%dB/%s", size, walk), func(b *testing.B) {
				vec := schema.NewVector(schema.String)
				for i := 0; i < b.N; i++ {
					c := ColumnCursor{typ: schema.String, raw: raw, remaining: PartitionSize, long: long}
					if _, err := c.Next(PartitionSize, vec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if size != 3 && size != 12 && size != 45 {
			continue
		}
		b.Run(fmt.Sprintf("%dB/skip", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := ColumnCursor{typ: schema.String, raw: raw, remaining: PartitionSize, long: size >= longTerm}
				if _, err := c.Next(PartitionSize, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
