package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pax"
	"repro/internal/schema"
)

var sch = schema.MustNew(
	schema.Field{Name: "k", Type: schema.Int32},
	schema.Field{Name: "day", Type: schema.Date},
	schema.Field{Name: "rev", Type: schema.Float64},
	schema.Field{Name: "word", Type: schema.String},
)

// sortedBlock builds an n-row block clustered on col.
func sortedBlock(n int, col int, seed int64) *pax.Block {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"}
	b := pax.NewBlock(sch)
	for i := 0; i < n; i++ {
		row := schema.Row{
			schema.IntVal(rng.Int31n(1 << 16)),
			schema.DateVal(10000 + rng.Int31n(1000)),
			schema.FloatVal(float64(rng.Intn(200))),
			schema.StringVal(words[rng.Intn(len(words))]),
		}
		if err := b.AppendRow(row); err != nil {
			panic(err)
		}
	}
	if err := b.Sort(col); err != nil {
		panic(err)
	}
	return b
}

func TestBuildRequiresClusteredBlock(t *testing.T) {
	b := sortedBlock(100, 0, 1)
	if _, err := Build(b, 1); err == nil {
		t.Error("Build on non-clustering column succeeded")
	}
	if _, err := Build(b, -1); err == nil {
		t.Error("Build(-1) succeeded")
	}
	if _, err := Build(b, 99); err == nil {
		t.Error("Build(99) succeeded")
	}
	if _, err := Build(b, 0); err != nil {
		t.Errorf("Build on clustering column failed: %v", err)
	}
}

func TestIndexShape(t *testing.T) {
	n := 3*pax.PartitionSize + 17
	b := sortedBlock(n, 0, 2)
	ix, err := Build(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumRows() != n {
		t.Errorf("NumRows = %d, want %d", ix.NumRows(), n)
	}
	if ix.NumPartitions() != 4 {
		t.Errorf("NumPartitions = %d, want 4", ix.NumPartitions())
	}
	if ix.Column() != 0 || ix.KeyType() != schema.Int32 {
		t.Errorf("Column/KeyType = %d/%s", ix.Column(), ix.KeyType())
	}
}

// bruteRange returns the tightest partition-aligned row range covering all
// rows with lo <= v <= hi, computed by scanning the block.
func bruteRange(b *pax.Block, col int, lo, hi *schema.Value) (int, int, bool) {
	first, last := -1, -1
	for i := 0; i < b.NumRows(); i++ {
		v := b.Value(i, col)
		if lo != nil && v.Compare(*lo) < 0 {
			continue
		}
		if hi != nil && v.Compare(*hi) > 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
	}
	if first < 0 {
		return 0, 0, false
	}
	pFrom := first / pax.PartitionSize
	pTo := last / pax.PartitionSize
	toRow := (pTo + 1) * pax.PartitionSize
	if toRow > b.NumRows() {
		toRow = b.NumRows()
	}
	return pFrom * pax.PartitionSize, toRow, true
}

func TestPartitionRangeMatchesBruteForce(t *testing.T) {
	n := 5*pax.PartitionSize + 123
	b := sortedBlock(n, 0, 3)
	ix, err := Build(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		loV := schema.IntVal(rng.Int31n(1 << 16))
		hiV := schema.IntVal(loV.Int() + rng.Int31n(1<<14))
		var lo, hi *schema.Value
		switch trial % 4 {
		case 0:
			lo, hi = &loV, &hiV
		case 1:
			lo, hi = &loV, nil
		case 2:
			lo, hi = nil, &hiV
		case 3:
			eq := schema.Value(loV)
			lo, hi = &eq, &eq
		}
		gf, gt, gok := ix.PartitionRange(lo, hi)
		bf, bt, bok := bruteRange(b, 0, lo, hi)
		if bok && !gok {
			t.Fatalf("trial %d: index missed matching rows (lo=%v hi=%v)", trial, lo, hi)
		}
		if !bok {
			// The index knows only first keys per partition, so it may
			// return a candidate range for an absent value; post-filtering
			// handles that. A false negative would be a bug (checked above).
			continue
		}
		// The index range must cover the brute range...
		if gf > bf || gt < bt {
			t.Fatalf("trial %d: index [%d,%d) does not cover brute [%d,%d)", trial, gf, gt, bf, bt)
		}
		// ...with at most one false-positive partition on each side: the
		// index cannot distinguish positions inside a partition.
		if bf-gf > pax.PartitionSize || gt-bt > pax.PartitionSize {
			t.Fatalf("trial %d: index [%d,%d) too loose for tightest [%d,%d)", trial, gf, gt, bf, bt)
		}
	}
}

func TestPartitionRangeEmptyResults(t *testing.T) {
	b := sortedBlock(2048, 0, 5)
	ix, err := Build(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Below all keys: no partition can match only if min > hi.
	minV := b.Value(0, 0)
	below := schema.IntVal(minV.Int() - 1)
	if _, _, ok := ix.PartitionRange(nil, &below); ok {
		t.Error("range below minimum returned ok")
	}
	// Above all keys: the last partition still must be checked, since the
	// index only stores first keys; ok=true is correct here.
	maxFirst := schema.IntVal(1 << 30)
	if _, _, ok := ix.PartitionRange(&maxFirst, nil); !ok {
		t.Error("range above all first keys must still cover the last partition")
	}
}

func TestPartitionRangeEmptyIndex(t *testing.T) {
	b := pax.NewBlock(sch)
	if err := b.Sort(0); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ix.PartitionRange(nil, nil); ok {
		t.Error("empty index returned ok")
	}
}

func TestPartitionRangeUnbounded(t *testing.T) {
	n := 4 * pax.PartitionSize
	b := sortedBlock(n, 2, 6)
	ix, err := Build(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, to, ok := ix.PartitionRange(nil, nil)
	if !ok || f != 0 || to != n {
		t.Errorf("unbounded range = [%d,%d) ok=%v, want [0,%d) true", f, to, ok, n)
	}
}

func TestIndexOnEveryType(t *testing.T) {
	for col := 0; col < sch.NumFields(); col++ {
		b := sortedBlock(3000, col, int64(100+col))
		ix, err := Build(b, col)
		if err != nil {
			t.Fatalf("col %d: %v", col, err)
		}
		lo := b.Value(1500, col)
		f, to, ok := ix.PartitionRange(&lo, &lo)
		if !ok {
			t.Fatalf("col %d: present value not found", col)
		}
		found := false
		for r := f; r < to; r++ {
			if b.Value(r, col).Equal(lo) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("col %d: returned range does not contain the probe value", col)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for col := 0; col < sch.NumFields(); col++ {
		b := sortedBlock(2*pax.PartitionSize+50, col, int64(200+col))
		ix, err := Build(b, col)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ix.Marshal()
		if err != nil {
			t.Fatalf("col %d Marshal: %v", col, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("col %d Unmarshal: %v", col, err)
		}
		if got.Column() != ix.Column() || got.KeyType() != ix.KeyType() ||
			got.NumRows() != ix.NumRows() || got.NumPartitions() != ix.NumPartitions() {
			t.Fatalf("col %d: metadata mismatch after round trip", col)
		}
		// Lookups must agree.
		lo := b.Value(700, col)
		f1, t1, ok1 := ix.PartitionRange(&lo, nil)
		f2, t2, ok2 := got.PartitionRange(&lo, nil)
		if f1 != f2 || t1 != t2 || ok1 != ok2 {
			t.Errorf("col %d: lookup mismatch after round trip", col)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := sortedBlock(2048, 0, 7)
	ix, _ := Build(b, 0)
	data, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data[:6]); err == nil {
		t.Error("truncated index accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'Z'
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Swap two keys to break ordering: keys start after the 19-byte header.
	swapped := append([]byte(nil), data...)
	copy(swapped[19:23], data[23:27])
	copy(swapped[23:27], data[19:23])
	if ix.NumPartitions() >= 2 {
		if _, err := Unmarshal(swapped); err == nil {
			t.Error("out-of-order keys accepted")
		}
	}
	// A NaN key compares equal to both neighbours, so the ordering check
	// cannot see it; the lookups' binary searches would.
	fix, _ := Build(sortedBlock(3*pax.PartitionSize, 2, 7), 2)
	fdata, err := fix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(fdata[19+8:], math.Float64bits(math.NaN()))
	if _, err := Unmarshal(fdata); err == nil || !strings.Contains(err.Error(), "key 1 is NaN") {
		t.Errorf("NaN key: err = %v, want one naming key 1", err)
	}
}

func TestIndexIsSparse(t *testing.T) {
	// The paper reports ~2 KB indexes vs. 304 KB for Hadoop++'s dense
	// trojan index; on a 256 MB block the root is ~0.01% of the data.
	n := 64 * pax.PartitionSize // 65,536 rows
	b := sortedBlock(n, 0, 8)
	ix, err := Build(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if sz := len(data); sz == 0 || sz > 1024 {
		t.Errorf("index size = %d bytes, want sparse (<=1KB for 64 partitions)", sz)
	}
}

func TestLookupProperty(t *testing.T) {
	// Property: for any probe value, every row in the block matching the
	// point predicate lies inside the returned partition range.
	b := sortedBlock(4*pax.PartitionSize+99, 1, 9)
	ix, err := Build(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(probe int32) bool {
		v := schema.DateVal(10000 + probe%1000)
		from, to, ok := ix.PartitionRange(&v, &v)
		for i := 0; i < b.NumRows(); i++ {
			if b.Value(i, 1).Equal(v) {
				if !ok || i < from || i >= to {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Probes that only this package's tests call.

// KeyType returns the type of the indexed attribute.
func (ix *Index) KeyType() schema.Type { return ix.keyType }

// NumPartitions returns the number of partitions (index entries).
func (ix *Index) NumPartitions() int { return len(ix.keys) }
