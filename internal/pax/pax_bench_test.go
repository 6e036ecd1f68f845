package pax

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/workload"
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

// BenchmarkAppendLine is the upload's parse on its own: one op is one
// 2 MB block's worth of generated UserVisits lines (Bob's layout's block
// size, as BenchmarkUploadBob in internal/core uploads them) appended to a
// reset block with AppendLine, its arenas grown by a first fill.
func BenchmarkAppendLine(b *testing.B) {
	sch := workload.UserVisitsSchema()
	var lines []string
	text := 0
	for _, line := range workload.GenerateUserVisits(40_000, 1, workload.UserVisitsOptions{}) {
		if text >= 2<<20 {
			break
		}
		lines = append(lines, line)
		text += len(line) + 1
	}
	p := schema.NewParser(sch)
	blk := NewBlock(sch)
	fill := func() {
		blk.Reset()
		for _, line := range lines {
			if err := blk.AppendLine(p, line); err != nil {
				b.Fatal(err)
			}
		}
	}
	fill()
	b.SetBytes(int64(text))
	b.ReportAllocs()
	for b.Loop() {
		fill()
	}
	b.ReportMetric(float64(len(lines)), "lines/op")
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

// BenchmarkTerminatorWalk is the evidence behind schema's longTerm and
// skipChunk, over 1,024 string values of one length. walk builds a packed
// vector's span directory, its terminators found by schema.Terminator's
// byte loop and by its bytes.IndexByte — the walk that every random
// access to a packed batch, and Batch.Lines, pays. count is the cursor's
// Next on that range: it packs the batch after counting its terminators a
// chunk at a time, walking only the last chunk. One op is the whole 1,024
// values.
func BenchmarkTerminatorWalk(b *testing.B) {
	for _, size := range []int{3, 8, 12, 24, 45} {
		raw := bytes.Repeat(append(bytes.Repeat([]byte{'v'}, size), 0), PartitionSize)
		for _, long := range []bool{false, true} {
			walk := "loop"
			if long {
				walk = "IndexByte"
			}
			b.Run(fmt.Sprintf("%dB/walk-%s", size, walk), func(b *testing.B) {
				vec := schema.NewVector(schema.String)
				for i := 0; i < b.N; i++ {
					vec.Pack(raw, PartitionSize, long)
					_ = vec.StrAt(0)
				}
			})
		}
		b.Run(fmt.Sprintf("%dB/count", size), func(b *testing.B) {
			vec := schema.NewVector(schema.String)
			for i := 0; i < b.N; i++ {
				c := ColumnCursor{typ: schema.String, raw: raw, remaining: PartitionSize, long: schema.LongValues(len(raw), PartitionSize)}
				if _, err := c.Next(PartitionSize, vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
