package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/binenc"
)

// bigRounded is the correctly rounded float64 of the exact sum of xs.
func bigRounded(xs []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetFloat64(x))
	}
	v, _ := sum.Float64()
	return v
}

// encoded is the canonical encoding of a sum, the state two sums must share.
func encoded(s *ExactSum) []byte {
	w := binenc.NewWriter(64)
	s.AppendBinary(w)
	return w.Bytes()
}

// splitSum adds xs in parts cut at random points, into separate sums
// merged in a random order — one of the many ways a sharded fold can
// produce the same total.
func splitSum(xs []float64, rng *rand.Rand) *ExactSum {
	parts := []*ExactSum{new(ExactSum)}
	for _, x := range xs {
		if rng.Intn(8) == 0 {
			parts = append(parts, new(ExactSum))
		}
		parts[len(parts)-1].Add(x)
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	total := new(ExactSum)
	for _, p := range parts {
		total.Merge(p)
	}
	return total
}

// checkSum asserts that every split of xs leaves the same state as one
// sequential sum and reads the correctly rounded value.
func checkSum(t *testing.T, xs []float64, seed int64) {
	t.Helper()
	var seq ExactSum
	for _, x := range xs {
		seq.Add(x)
	}
	want := encoded(&seq)
	exact := bigRounded(xs)
	if got := seq.Float64(); got != exact {
		t.Fatalf("sum of %v = %v, correctly rounded %v", xs, got, exact)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 4; k++ {
		s := splitSum(xs, rng)
		if got := encoded(s); !bytes.Equal(got, want) {
			t.Fatalf("split %d of %v: state %x, sequential %x", k, xs, got, want)
		}
		if got := s.Float64(); got != exact {
			t.Fatalf("split %d of %v: %v, correctly rounded %v", k, xs, got, exact)
		}
	}
	var back ExactSum
	if err := back.ReadBinary(binenc.NewReader(want)); err != nil {
		t.Fatalf("decode %x: %v", want, err)
	}
	if !bytes.Equal(encoded(&back), want) {
		t.Fatalf("round trip of %x changed the state", want)
	}
}

func TestExactSumCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	huge := math.MaxFloat64
	cases := [][]float64{
		nil,
		{0, math.Copysign(0, -1)},
		{1, 1e100, 1, -1e100},
		{0.1, 0.2, 0.3, -0.6},
		{huge, huge, -huge, -huge, 1},
		{huge, huge / 2, -huge},
		{tiny, tiny, -tiny, 3 * tiny},
		{-tiny},
		{-1, -2, -3},
		{1, -1 - math.Pow(2, -52)},
		{math.Pow(2, 53), 1, -math.Pow(2, 53)},
		{-math.Pow(2, -1022), math.Pow(2, -1074)},
	}
	// Enough adds to cross several carry normalizations, with cancellation.
	long := make([]float64, 5000)
	for i := range long {
		long[i] = float64(i%7-3) * 0.1 * math.Pow(2, float64(i%50-25))
	}
	cases = append(cases, long)
	for i, xs := range cases {
		checkSum(t, xs, int64(i))
	}
}

func TestExactSumSpecials(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
		{[]float64{math.Inf(-1), 5}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{[]float64{math.NaN(), 1}, math.NaN()},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
	} {
		var s ExactSum
		for _, x := range c.xs {
			s.Add(x)
		}
		got := s.Float64()
		if !(got == c.want || math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("sum of %v = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestExactSumQuoAndProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s ExactSum
	ref := new(big.Float).SetPrec(4096)
	for i := 0; i < 3000; i++ {
		x, w := rng.Float64(), float64(rng.Intn(300)+1)
		s.AddProduct(x, w)
		p := new(big.Float).SetPrec(4096).SetFloat64(x)
		ref.Add(ref, p.Mul(p, new(big.Float).SetFloat64(w)))
	}
	want, _ := new(big.Float).SetPrec(53).Quo(ref, big.NewFloat(7)).Float64()
	if got := s.Quo(7); got != want {
		t.Errorf("Quo(7) = %v, correctly rounded %v", got, want)
	}
	if got, want := s.Float64(), func() float64 { v, _ := ref.Float64(); return v }(); got != want {
		t.Errorf("sum of products = %v, correctly rounded %v", got, want)
	}
}

func TestExactSumDecodeRejects(t *testing.T) {
	var s ExactSum
	s.Add(3.5)
	good := encoded(&s)
	for name, raw := range map[string][]byte{
		"unknown flag":   {0x80, 0, 0},
		"span past end":  {0, exactChunks, 1, 2},
		"zero top digit": {0, 3, 2, 2, 0},
		"zero low digit": {0, 3, 2, 0, 2},
		"unnormalized":   append([]byte{0, 3, 2}, binary.AppendVarint(binary.AppendVarint(nil, 1<<33), 1)...),
		"empty, offset":  {0, 5, 0},
		"truncated":      good[:len(good)-1],
	} {
		if err := new(ExactSum).ReadBinary(binenc.NewReader(raw)); err == nil {
			t.Errorf("%s: %x accepted", name, raw)
		}
	}
}

// FuzzExactSum feeds arbitrary float64 bit patterns (subnormals, ±0 and
// values near the overflow threshold included; NaN and ±Inf are left to
// TestExactSumSpecials) through sequential and randomly split, randomly
// ordered merges: every way must leave one state and read the correctly
// rounded math/big sum.
func FuzzExactSum(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.1)), int64(1))
	seed := []byte{}
	for _, x := range []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-310, -0.0, 1} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var xs []float64
		for len(data) >= 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		checkSum(t, xs, seed)
	})
}
