package stats

import (
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func lognormalSamples(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(r.NormFloat64())
	}
	return out
}

// TestMeanVarMatchesSummarize: the streaming accumulator must agree with the
// batch Summarize on mean, extrema and (population-adjusted) spread.
func TestMeanVarMatchesSummarize(t *testing.T) {
	xs := lognormalSamples(1, 5000)
	var a MeanVar
	for _, x := range xs {
		a.Add(x)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != float64(len(xs)) {
		t.Errorf("N = %v", a.N())
	}
	if !approxEq(a.Mean(), s.Mean, 1e-12) {
		t.Errorf("mean %v vs %v", a.Mean(), s.Mean)
	}
	if a.Min() != s.Min || a.Max() != s.Max {
		t.Errorf("extrema (%v, %v) vs (%v, %v)", a.Min(), a.Max(), s.Min, s.Max)
	}
	// Summarize reports the sample std (n-1); MeanVar the population std.
	sampleVar := a.Var() * a.N() / (a.N() - 1)
	if !approxEq(math.Sqrt(sampleVar), s.Std, 1e-9) {
		t.Errorf("std %v vs %v", math.Sqrt(sampleVar), s.Std)
	}
	if !approxEq(a.Sum(), s.Total, 1e-12) {
		t.Errorf("sum %v vs %v", a.Sum(), s.Total)
	}
}

// TestMeanVarMergeEqualsBulk: merge(a, b) over any split must equal the
// bulk accumulation — the property the sharded pipeline relies on.
func TestMeanVarMergeEqualsBulk(t *testing.T) {
	xs := lognormalSamples(2, 9000)
	var bulk MeanVar
	for _, x := range xs {
		bulk.Add(x)
	}
	for _, cut := range []int{0, 1, 17, 4500, 8999, 9000} {
		var a, b MeanVar
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(&b)
		if a.N() != bulk.N() {
			t.Fatalf("cut %d: N %v vs %v", cut, a.N(), bulk.N())
		}
		if !approxEq(a.Mean(), bulk.Mean(), 1e-12) || !approxEq(a.Var(), bulk.Var(), 1e-9) {
			t.Errorf("cut %d: mean/var (%v, %v) vs bulk (%v, %v)",
				cut, a.Mean(), a.Var(), bulk.Mean(), bulk.Var())
		}
		if a.Min() != bulk.Min() || a.Max() != bulk.Max() {
			t.Errorf("cut %d: extrema drift", cut)
		}
	}
}

// TestMeanVarMergeAssociative: ((a+b)+c) == (a+(b+c)) over a 3-way split.
func TestMeanVarMergeAssociative(t *testing.T) {
	xs := lognormalSamples(3, 6000)
	thirds := [][]float64{xs[:2000], xs[2000:4000], xs[4000:]}
	fill := func(part []float64) *MeanVar {
		var m MeanVar
		for _, x := range part {
			m.Add(x)
		}
		return &m
	}
	left := fill(thirds[0])
	left.Merge(fill(thirds[1]))
	left.Merge(fill(thirds[2]))

	right23 := fill(thirds[1])
	right23.Merge(fill(thirds[2]))
	right := fill(thirds[0])
	right.Merge(right23)

	if !approxEq(left.Mean(), right.Mean(), 1e-12) || !approxEq(left.Var(), right.Var(), 1e-9) {
		t.Errorf("associativity drift: (%v, %v) vs (%v, %v)",
			left.Mean(), left.Var(), right.Mean(), right.Var())
	}
}

func TestMeanVarEdgeCases(t *testing.T) {
	var a MeanVar
	if a.Mean() != 0 || a.Var() != 0 || a.N() != 0 {
		t.Error("zero value must be empty")
	}
	a.Add(math.NaN()) // ignored
	a.AddWeighted(5, -1)
	a.AddWeighted(5, 0)
	if a.N() != 0 {
		t.Error("invalid samples must be ignored")
	}
	var b MeanVar
	b.Add(2)
	a.Merge(&b) // empty.Merge(nonempty)
	if a.Mean() != 2 || a.N() != 1 {
		t.Errorf("merge into empty: mean %v n %v", a.Mean(), a.N())
	}
	a.Merge(nil)
	a.Merge(&MeanVar{})
	if a.N() != 1 {
		t.Error("merging nil/empty must be a no-op")
	}
}

func TestMeanVarWeighted(t *testing.T) {
	var w, r MeanVar
	w.AddWeighted(3, 2)
	w.AddWeighted(7, 1)
	r.Add(3)
	r.Add(3)
	r.Add(7)
	if !approxEq(w.Mean(), r.Mean(), 1e-12) || !approxEq(w.Var(), r.Var(), 1e-12) {
		t.Errorf("weighted (%v, %v) vs repeated (%v, %v)", w.Mean(), w.Var(), r.Mean(), r.Var())
	}
}

// TestHistogramMergeEqualsBulk: histogram merging must be exact — counts
// are plain sums.
func TestHistogramMergeEqualsBulk(t *testing.T) {
	edges, err := LogGrid(1e-3, 1e3, 61)
	if err != nil {
		t.Fatal(err)
	}
	xs := lognormalSamples(4, 8000)
	xs[0], xs[1] = 1e-9, 1e9 // force under/over traffic
	bulk, _ := NewHistogram(edges)
	a, _ := NewHistogram(edges)
	b, _ := NewHistogram(edges)
	for i, x := range xs {
		bulk.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	_, wantCounts := bulk.Bins()
	_, gotCounts := a.Bins()
	for i := range wantCounts {
		if wantCounts[i] != gotCounts[i] {
			t.Fatalf("bin %d: %v vs %v", i, gotCounts[i], wantCounts[i])
		}
	}
	if a.Total() != bulk.Total() {
		t.Errorf("total %v vs %v", a.Total(), bulk.Total())
	}
	au, ao := a.OutOfRange()
	bu, bo := bulk.OutOfRange()
	if au != bu || ao != bo {
		t.Errorf("out-of-range (%v, %v) vs (%v, %v)", au, ao, bu, bo)
	}
}

func TestHistogramMergeRejectsMismatchedEdges(t *testing.T) {
	a, _ := NewHistogram([]float64{0, 1, 2})
	b, _ := NewHistogram([]float64{0, 1, 3})
	if err := a.Merge(b); err == nil {
		t.Error("mismatched edges must not merge")
	}
	c, _ := NewHistogram([]float64{0, 1})
	if err := a.Merge(c); err == nil {
		t.Error("different edge counts must not merge")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge must be a no-op, got %v", err)
	}
}

// TestHistogramQuantile: interpolated quantiles over uniform data must land
// within a bin width of the exact values.
func TestHistogramQuantile(t *testing.T) {
	edges, err := LinGrid(0, 1, 101)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHistogram(edges)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		h.Add(r.Float64())
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-q) > 0.02 {
			t.Errorf("q%.2f: got %v", q, got)
		}
	}
	if v, _ := h.Quantile(-1); v != 0 {
		t.Errorf("q<0 must clamp to min edge, got %v", v)
	}
	if v, _ := h.Quantile(2); v != 1 {
		t.Errorf("q>1 must clamp to max edge, got %v", v)
	}
	empty, _ := NewHistogram(edges)
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("empty histogram must error")
	}
}
