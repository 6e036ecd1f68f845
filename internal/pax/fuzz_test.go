package pax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
)

// fuzzSeedBlock is a marshalled block of every column type, sorted, with
// bad records — the shape a datanode stores.
func fuzzSeedBlock(f *testing.F, rows int) []byte {
	b := buildBlock(nil, rows, 31)
	b.AppendBad("not,a,row")
	b.AppendBad("")
	if err := b.Sort(3); err != nil {
		f.Fatal(err)
	}
	data, err := b.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzNewReader: whatever the bytes, opening a block and reading all of it
// the way a scan does — one cursor per column over every row, decoding
// whole batches and then selected rows, then the bad-record section —
// yields values or an error, never a panic, and allocates in proportion to
// the input. Every string value is looked at, so a span outside the
// vector's Bytes is a failure here and not in a map function; and every
// string batch Next packs is held to the same values walked one by one
// (packedMatchesWalk). One Reader and one cursor, re-opened in place on
// input after input, read each block as a fresh NewReader does
// (reopenMatchesFresh).
func FuzzNewReader(f *testing.F) {
	f.Add(fuzzSeedBlock(f, 2*PartitionSize+17))
	small := fuzzSeedBlock(f, 10)
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add([]byte(blockMagic))
	walk, err := walkBlock(200, 5).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(walk)
	var reused Reader
	var cur ColumnCursor
	var bad []string
	f.Fuzz(func(t *testing.T, data []byte) {
		bad = reopenMatchesFresh(t, data, &reused, &cur, bad)
		fuzzcheck.BoundedAlloc(t, len(data), func() {
			r, err := NewReader(data)
			if err != nil {
				return
			}
			touch := func(vec *schema.Vector) {
				for i := 0; vec.Type() == schema.String && i < vec.Len(); i++ {
					_ = vec.StrAt(i)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(data))))
			sel := []int32{0, 1, 5, PartitionSize - 1}
			for col := 0; col < r.Schema().NumFields(); col++ {
				typ := r.Schema().Field(col).Type
				vec, ref := schema.NewVector(typ), schema.NewVector(typ)
				if c, err := r.NewColumnCursor(col, 0, r.NumRows()); err == nil {
					w, _ := r.NewColumnCursor(col, 0, r.NumRows())
					for {
						n, err := c.Next(PartitionSize, vec)
						if err != nil || n == 0 {
							break
						}
						if typ == schema.String {
							if _, err := w.NextSelected(n, query.MakeSelection(nil, n), ref); err != nil {
								t.Fatalf("Next delivered %d values that a walk fails on: %v", n, err)
							}
							packedMatchesWalk(t, vec, ref, rng)
						}
						touch(vec)
					}
				}
				if c, err := r.NewColumnCursor(col, 0, r.NumRows()); err == nil {
					for c.Remaining() > 0 {
						n := min(PartitionSize, c.Remaining())
						k := 0
						for k < len(sel) && int(sel[k]) < n {
							k++
						}
						if _, err := c.NextSelected(n, sel[:k], vec); err != nil {
							break
						}
						if vec.Len() != k {
							t.Fatalf("NextSelected delivered %d values for %d selected rows", vec.Len(), k)
						}
						touch(vec)
					}
				}
			}
			if bad, err := r.ReadAllBad(nil); err == nil && len(bad) != r.NumBad() {
				t.Fatalf("ReadAllBad returned %d records, header says %d", len(bad), r.NumBad())
			}
		})
	})
}

// reopenMatchesFresh opens data with NewReader and re-opens r, which last
// served another block, on it in place, and holds the two to each other:
// the same error, or the same header, then for every column the same
// values through a fresh cursor and through c re-opened in place — over
// every row, and over a range that starts and ends mid-partition — the
// same I/O accounting, and the same bad records appended to bad. It
// returns bad for the next input to reuse, and leaves r closed.
func reopenMatchesFresh(t *testing.T, data []byte, r *Reader, c *ColumnCursor, bad []string) []string {
	t.Helper()
	fresh, err := NewReader(data)
	if rerr := r.Open(data); fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("NewReader: %v; re-opened in place: %v", err, rerr)
	}
	defer r.Close()
	if err != nil {
		return bad
	}
	if !r.Schema().Equal(fresh.Schema()) || r.NumRows() != fresh.NumRows() || r.NumBad() != fresh.NumBad() ||
		r.SortColumn() != fresh.SortColumn() || r.BlockSize() != fresh.BlockSize() {
		t.Fatalf("re-opened in place: %s, %d rows, %d bad, sorted on %d, %d bytes; fresh: %s, %d, %d, %d, %d",
			r.Schema(), r.NumRows(), r.NumBad(), r.SortColumn(), r.BlockSize(),
			fresh.Schema(), fresh.NumRows(), fresh.NumBad(), fresh.SortColumn(), fresh.BlockSize())
	}
	n := r.NumRows()
	for col := 0; col < r.Schema().NumFields(); col++ {
		typ := r.Schema().Field(col).Type
		for _, rg := range [][2]int{{0, n}, {n / 3, n - n/5}} {
			fc, err := fresh.NewColumnCursor(col, rg[0], rg[1])
			if cerr := c.Open(r, col, rg[0], rg[1]); fmt.Sprint(err) != fmt.Sprint(cerr) {
				t.Fatalf("column %d rows %v: fresh cursor: %v; re-opened in place: %v", col, rg, err, cerr)
			}
			if err != nil {
				continue
			}
			want, got := schema.NewVector(typ), schema.NewVector(typ)
			for {
				k, err := fc.Next(PartitionSize/3, want)
				m, cerr := c.Next(PartitionSize/3, got)
				if k != m || fmt.Sprint(err) != fmt.Sprint(cerr) {
					t.Fatalf("column %d rows %v: fresh cursor delivers %d (%v), re-opened in place %d (%v)", col, rg, k, err, m, cerr)
				}
				if err != nil || k == 0 {
					break
				}
				for i := 0; i < k; i++ {
					if w, g := want.AppendText(nil, i), got.AppendText(nil, i); !bytes.Equal(w, g) {
						t.Fatalf("column %d rows %v: fresh cursor reads %q, re-opened in place %q", col, rg, w, g)
					}
				}
			}
		}
	}
	wantBad, err := fresh.ReadAllBad(nil)
	bad, berr := r.ReadAllBad(bad)
	if fmt.Sprint(err) != fmt.Sprint(berr) || !slices.Equal(bad, wantBad) {
		t.Fatalf("bad records: fresh %q (%v), re-opened in place %q (%v)", wantBad, err, bad, berr)
	}
	if r.Stats() != fresh.Stats() {
		t.Fatalf("re-opened in place read %+v, fresh %+v", r.Stats(), fresh.Stats())
	}
	return bad
}

// packedMatchesWalk holds vec, a string batch as Next packs it, to ref, the
// same rows decoded by NextSelected with every row selected, which walks
// each terminator and fills the span directory as it goes: Batch.Lines
// (read first, while vec is still packed, so it takes the running-offset
// path), Len, every StrAt (which builds vec's directory), Gather over a
// random selection, and Lines over what Gather kept.
func packedMatchesWalk(t *testing.T, vec, ref *schema.Vector, rng *rand.Rand) {
	t.Helper()
	n := ref.Len()
	if !vec.Packed() || vec.Len() != n {
		t.Fatalf("Next delivered %d values (packed %v), the walk %d", vec.Len(), vec.Packed(), n)
	}
	var some []int32
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			some = append(some, int32(i))
		}
	}
	sameLines := func() {
		t.Helper()
		got, gotEnds := (&mapred.Batch{Cols: []*schema.Vector{vec, vec}, Rows: vec.Len()}).Lines(',')
		want, wantEnds := (&mapred.Batch{Cols: []*schema.Vector{ref, ref}, Rows: ref.Len()}).Lines(',')
		if got != want || !slices.Equal(gotEnds, wantEnds) {
			t.Fatalf("Lines over %d rows: %q %v, the walk %q %v", vec.Len(), got, gotEnds, want, wantEnds)
		}
	}
	sameLines()
	for i := 0; i < n; i++ {
		if !bytes.Equal(vec.StrAt(i), ref.StrAt(i)) {
			t.Fatalf("value %d of %d: %q, the walk %q", i, n, vec.StrAt(i), ref.StrAt(i))
		}
	}
	vec.Gather(some)
	ref.Gather(some)
	if vec.Len() != ref.Len() {
		t.Fatalf("Gather of %d values left %d, the walk %d", len(some), vec.Len(), ref.Len())
	}
	for i := 0; i < vec.Len(); i++ {
		if !bytes.Equal(vec.StrAt(i), ref.StrAt(i)) {
			t.Fatalf("gathered value %d: %q, the walk %q", i, vec.StrAt(i), ref.StrAt(i))
		}
	}
	sameLines()
}

// withGarbageAfterLastString returns the marshalled block data with junk
// (terminators included) between the last string column's final value and
// the bad-record section, the directory patched to match: bytes the header
// parse accepts and only the terminator scan tells from values.
func withGarbageAfterLastString(data []byte) []byte {
	junk := []byte("junk\x00after\x00the\x00values")
	dirAt := fixedHeader + len(testSchema.String()) + 2
	urlDir, badDir := dirAt+4*8, dirAt+5*8
	badOff := int(binary.LittleEndian.Uint32(data[badDir:]))
	out := append(append(append([]byte(nil), data[:badOff]...), junk...), data[badOff:]...)
	binary.LittleEndian.PutUint32(out[urlDir+4:], binary.LittleEndian.Uint32(data[urlDir+4:])+uint32(len(junk)))
	binary.LittleEndian.PutUint32(out[badDir:], uint32(badOff+len(junk)))
	return out
}

// FuzzUnmarshal: whatever the bytes, Unmarshal yields an error or a block
// that can be sorted on every attribute and marshalled — the datanode's
// transform — without a panic, without allocating out of proportion to
// the input and without writing to the input it aliases; and what Marshal
// writes, Unmarshal reads back to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	f.Add(fuzzSeedBlock(f, 2*PartitionSize+17))
	small := fuzzSeedBlock(f, 10)
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add(small[:len(small)-1])
	f.Add(withGarbageAfterLastString(small))
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		var b *Block
		var err error
		fuzzcheck.BoundedAlloc(t, len(data), func() { b, err = Unmarshal(data) })
		if err != nil {
			return
		}
		for col := 0; col < b.Schema().NumFields(); col++ {
			var out []byte
			fuzzcheck.BoundedAlloc(t, len(data), func() {
				if err = b.Sort(col); err == nil {
					out, err = b.Marshal()
				}
			})
			if err != nil {
				t.Fatalf("sorting on %d and marshalling: %v", col, err)
			}
			for r := 1; r < b.NumRows(); r++ {
				if b.Value(r-1, col).Compare(b.Value(r, col)) > 0 {
					t.Fatalf("sorted on %d, rows %d and %d are out of order", col, r-1, r)
				}
			}
			back, err := Unmarshal(out)
			if err != nil {
				t.Fatalf("Unmarshal of Marshal's output: %v", err)
			}
			if again, err := back.Marshal(); err != nil || !bytes.Equal(again, out) {
				t.Fatalf("block sorted on %d does not round-trip (%v)", col, err)
			}
		}
		if !bytes.Equal(data, input) {
			t.Fatal("the input was written to")
		}
	})
}
