package schema

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFloat fails the test when AppendFloat and strconv disagree on f.
func checkFloat(t testing.TB, got, want []byte, f float64) ([]byte, []byte) {
	got = AppendFloat(got[:0], f)
	want = strconv.AppendFloat(want[:0], f, 'g', -1, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFloat(%#x) = %q, strconv gives %q", math.Float64bits(f), got, want)
	}
	return got, want
}

// TestAppendFloatMatchesStrconv: the fast path prints what strconv prints,
// on the values it is for and around them. The sweep is every decimal
// k/10^d with k < 10⁶ and d ≤ 7 — what a stored float parsed from a short
// decimal is — with both signs and both neighbours of each, which are the
// values one digit short of round-tripping; then random bit patterns and
// the edges of the fast path's range.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	kMax, random := 1_000_000, 1_000_000
	if testing.Short() {
		kMax, random = 50_000, 100_000
	}
	for d, pow := 0, 1.0; d <= 7; d, pow = d+1, pow*10 {
		t.Run(fmt.Sprintf("k/1e%d", d), func(t *testing.T) {
			t.Parallel()
			var got, want []byte
			for k := 0; k < kMax; k++ {
				v := float64(k) / pow
				got, want = checkFloat(t, got, want, v)
				got, want = checkFloat(t, got, want, -v)
				got, want = checkFloat(t, got, want, math.Nextafter(v, math.Inf(1)))
				got, want = checkFloat(t, got, want, -math.Nextafter(v, 0))
			}
		})
	}
	var got, want []byte
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < random; i++ {
		got, want = checkFloat(t, got, want, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range []float64{
		1e-4, math.Nextafter(1e-4, 0), math.Nextafter(1e-4, 1),
		math.Nextafter(1e6, 0), 1e6, 999999.9, 999999.5, 0.5, 1, 123456.789, 1e15 / 1e9,
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 33.99999999999999,
	} {
		got, want = checkFloat(t, got, want, f)
		got, want = checkFloat(t, got, want, -f)
	}
}

// FuzzAppendFloat: any eight bytes, read as a float64's bits, print as
// strconv prints them.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1e-4, 42.5, -0.1, 999999.9999999999, 1e6, math.Inf(1), 33.99999999999999} {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var bits [8]byte
		copy(bits[:], b)
		checkFloat(t, nil, nil, math.Float64frombits(binary.LittleEndian.Uint64(bits[:])))
	})
}
