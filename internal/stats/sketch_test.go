package stats

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestHistogramQuantileBoundaries(t *testing.T) {
	edges := []float64{0, 1, 2, 3, 4}
	h, err := NewHistogram(edges)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy only the middle: bin [1,2) and bin [2,3).
	h.Add(1.5)
	h.Add(2.5)

	q0, err := h.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	if q0 != 1 {
		t.Errorf("Quantile(0) = %v, want lower edge of first occupied bin (1)", q0)
	}
	q1, err := h.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 3 {
		t.Errorf("Quantile(1) = %v, want upper edge of last occupied bin (3)", q1)
	}

	// Out-of-range mass clamps to the outer edges.
	h2, _ := NewHistogram(edges)
	h2.Add(-5)
	h2.Add(10)
	if q, _ := h2.Quantile(0); q != 0 {
		t.Errorf("with under-range mass Quantile(0) = %v, want first edge", q)
	}
	if q, _ := h2.Quantile(1); q != 4 {
		t.Errorf("with over-range mass Quantile(1) = %v, want last edge", q)
	}

	// Empty histogram errors.
	h3, _ := NewHistogram(edges)
	if _, err := h3.Quantile(0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Quantile error = %v, want ErrEmpty", err)
	}
}

// TestSketchExactCDFBoundaryAgreement pins the satellite requirement: the
// sketch and the exact CDF agree exactly at q = 0 and q = 1, and P agrees
// below the min and at/above the max.
func TestSketchExactCDFBoundaryAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var samples []float64
	s, err := NewLinearSketch(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		samples = append(samples, x)
		s.Add(x)
	}
	exact, err := NewCDF(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Quantile(0), exact.Quantile(0); got != want {
		t.Errorf("Quantile(0): sketch %v vs exact %v", got, want)
	}
	if got, want := s.Quantile(1), exact.Quantile(1); got != want {
		t.Errorf("Quantile(1): sketch %v vs exact %v", got, want)
	}
	if got := s.P(exact.Min() - 0.01); got != 0 {
		t.Errorf("P below min = %v, want 0", got)
	}
	if got := s.P(exact.Max()); got != 1 {
		t.Errorf("P at max = %v, want 1", got)
	}
	// Interior quantiles stay within one bin width of the exact answer.
	binWidth := 1.0 / 64
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		if d := math.Abs(s.Quantile(q) - exact.Quantile(q)); d > binWidth {
			t.Errorf("Quantile(%v) off by %v (> bin width %v)", q, d, binWidth)
		}
	}
}

func TestSketchEmpty(t *testing.T) {
	s, err := NewLinearSketch(0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.P(0.5)) {
		t.Error("empty sketch should report NaN")
	}
	if s.Weight() != 0 {
		t.Errorf("empty sketch weight = %v", s.Weight())
	}
}

func TestSketchMergeEqualsBulk(t *testing.T) {
	mk := func() *Sketch {
		s, err := NewLogSketch(1e-3, 1e3, 96)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bulk, a, b := mk(), mk(), mk()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		x := math.Exp(rng.NormFloat64())
		w := 1 + float64(rng.Intn(4))
		bulk.AddWeighted(x, w)
		if i < 1000 {
			a.AddWeighted(x, w)
		} else {
			b.AddWeighted(x, w)
		}
	}
	// The distributed-merge contract: merging decoded snapshots produces
	// state bit-identical to merging the live shard sketches in the same
	// order. (The merged sketch may differ from one bulk fold in the last
	// bits of the Welford state; that is checked within tolerance below.)
	viaSnapshots := mk()
	for _, shard := range []*Sketch{a, b} {
		raw, err := shard.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Sketch
		if err := decoded.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if err := viaSnapshots.Merge(&decoded); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	snapMerged, err := viaSnapshots.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, snapMerged) {
		t.Error("merge of decoded snapshots differs from in-process merge")
	}
	// Against the bulk fold: with integer weights the merge is exact, down to
	// the snapshot bytes.
	bulkRaw, err := bulk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bulkRaw) {
		t.Error("merged sketch snapshot differs from the bulk fold's")
	}
	if a.Weight() != bulk.Weight() || a.Min() != bulk.Min() || a.Max() != bulk.Max() {
		t.Error("merged sketch weight/extrema differ from bulk fold")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := a.Quantile(q), bulk.Quantile(q); got != want {
			t.Errorf("Quantile(%v): merged %v vs bulk %v", q, got, want)
		}
	}

	// Mismatched edges must refuse to merge.
	other, err := NewLinearSketch(0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(other); err == nil {
		t.Error("merge across different edges should fail")
	}
}

func TestSketchSnapshotRoundTrip(t *testing.T) {
	s, err := NewLinearSketch(0, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		s.AddWeighted(rng.Float64(), 1+rng.Float64())
	}
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	raw2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("snapshot round trip not bit-identical")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got, want := back.Quantile(q), s.Quantile(q); got != want {
			t.Errorf("Quantile(%v) after round trip: %v vs %v", q, got, want)
		}
	}

	// A bumped version byte must be rejected, not misdecoded.
	bad := append([]byte(nil), raw...)
	bad[0] = sketchVersion + 1
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("future snapshot version accepted")
	}
	// Truncations error out cleanly.
	for i := 0; i < len(raw); i += 7 {
		if err := new(Sketch).UnmarshalBinary(raw[:i]); err == nil {
			t.Errorf("truncated snapshot of %d bytes accepted", i)
		}
	}
	// Extrema that no fold can produce are corrupt: reversed ones on a
	// non-empty sketch, any on an empty one.
	hRaw, err := s.hist.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewLinearSketch(0, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	emptyRaw, err := empty.hist.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		min, max float64
		hist     []byte
	}{{s.max, s.min, hRaw}, {0, 1, emptyRaw}} {
		w := newStatsWriter(len(c.hist) + 32)
		w.U8(sketchVersion)
		w.F64(c.min)
		w.F64(c.max)
		w.Raw(c.hist)
		if err := new(Sketch).UnmarshalBinary(w.Bytes()); err == nil ||
			!strings.Contains(err.Error(), "extrema") {
			t.Errorf("extrema [%v, %v] not rejected: %v", c.min, c.max, err)
		}
	}
}

func TestMeanVarHistogramSnapshotRoundTrip(t *testing.T) {
	var mv MeanVar
	for _, x := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		mv.AddWeighted(x, 0.5+x)
	}
	raw, err := mv.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back MeanVar
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	raw2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) || back.Mean() != mv.Mean() || back.Var() != mv.Var() ||
		back.N() != mv.N() || back.Min() != mv.Min() || back.Max() != mv.Max() {
		t.Errorf("MeanVar round trip changed state: %+v vs %+v", back, mv)
	}

	h, err := NewHistogram([]float64{0, 1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0.5, 1.5, 3, 9} {
		h.Add(x)
	}
	hraw, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var hback Histogram
	if err := hback.UnmarshalBinary(hraw); err != nil {
		t.Fatal(err)
	}
	hraw2, err := hback.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hraw, hraw2) {
		t.Error("histogram round trip not bit-identical")
	}
	if err := new(Histogram).UnmarshalBinary([]byte{histogramVersion, 0xff}); err == nil {
		t.Error("corrupt histogram snapshot accepted")
	}
}

// BenchmarkSketchAdd folds samples into a 160-bin log grid (the step-time
// shape) and a 512-bin uniform fraction grid (the CDF sinks' shape); both
// look bins up in O(1).
func BenchmarkSketchAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	logXs, fracXs := make([]float64, 4096), make([]float64, 4096)
	for i := range logXs {
		logXs[i] = math.Exp(rng.NormFloat64())
		fracXs[i] = rng.Float64()
	}
	cases := []struct {
		name string
		new  func() (*Sketch, error)
		xs   []float64
	}{
		{"log160", func() (*Sketch, error) { return NewLogSketch(1e-4, 1e4, 160) }, logXs},
		{"uniform512", func() (*Sketch, error) { return NewLinearSketch(0, 1, 512) }, fracXs},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, err := c.new()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(c.xs[i&4095])
			}
		})
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	s, err := NewLogSketch(1e-4, 1e4, 160)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		s.Add(math.Exp(rng.NormFloat64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantile(0.99)
	}
}

func BenchmarkSketchMerge(b *testing.B) {
	mk := func() *Sketch {
		s, _ := NewLogSketch(1e-4, 1e4, 160)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 10000; i++ {
			s.Add(math.Exp(rng.NormFloat64()))
		}
		return s
	}
	dst, src := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}
