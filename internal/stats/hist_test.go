package stats

import (
	"math"
	"math/rand"
	"testing"
)

// refBin is the lookup every grid must reproduce: the plain binary search
// over the edges. It returns -1 for under-range samples, len(edges)-1 for
// over-range ones, and otherwise the bin AddWeighted credits (the last bin
// is closed).
func refBin(edges []float64, x float64) int {
	last := len(edges) - 1
	switch {
	case x < edges[0]:
		return -1
	case x > edges[last]:
		return last
	case x == edges[last]:
		return last - 1
	}
	lo, hi := 0, last
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// checkLocate folds x into h and fails unless the weight landed in the
// slot refBin names. NaN samples are ignored by AddWeighted and skipped.
func checkLocate(tb testing.TB, h *Histogram, x float64) {
	tb.Helper()
	if math.IsNaN(x) {
		return
	}
	want := refBin(h.grid.edges, x)
	slot := &h.over
	switch {
	case want < 0:
		slot = &h.under
	case want < len(h.counts):
		slot = &h.counts[want]
	}
	before := *slot
	h.AddWeighted(x, 1)
	if *slot != before+1 {
		tb.Fatalf("x=%v (bits %#x): weight missed reference bin %d of %d (uniform=%v, log-uniform=%v)",
			x, math.Float64bits(x), want, len(h.counts), h.grid.inv > 0, h.grid.logInv > 0)
	}
}

// probes returns every edge, its math.Nextafter neighbours on both sides,
// and n random interior values drawn from rng.
func probes(edges []float64, rng *rand.Rand, n int) []float64 {
	var xs []float64
	for _, e := range edges {
		xs = append(xs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	lo, hi := edges[0], edges[len(edges)-1]
	lo = math.Max(lo, -math.MaxFloat64)
	hi = math.Min(hi, math.MaxFloat64)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		xs = append(xs, lo*(1-u)+hi*u)
	}
	return xs
}

func linGrid(t *testing.T, lo, hi float64, bins int) []float64 {
	t.Helper()
	edges, err := LinGrid(lo, hi, bins+1)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// snapshotEdges round-trips edges through a histogram snapshot, so the
// lookup runs on a grid adopted by UnmarshalBinary.
func snapshotEdges(t *testing.T, edges []float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(edges)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestHistogramLocateMatchesBinarySearch pins the O(1) lookup to the binary
// search bin for bin, on uniform and log-uniform grids (fast paths) and on
// every kind of grid that must fall back to the search.
func TestHistogramLocateMatchesBinarySearch(t *testing.T) {
	// A near-uniform grid: interior edges nudged by a few ulps and by a
	// fifth of a bin, still inside the quarter-bin uniformity tolerance.
	near := linGrid(t, 0, 1, 64)
	for i := 1; i < len(near)-1; i += 3 {
		near[i] = math.Nextafter(math.Nextafter(near[i], 2), 2)
	}
	near[10] += 0.2 / 64
	near[20] -= 0.2 / 64
	// Nudged by 0.3 bin: outside the tolerance, so it takes the search.
	skewed := linGrid(t, 0, 1, 64)
	skewed[33] += 0.3 / 64

	// Linear from -1e308 to 1e308: finite edges whose range overflows.
	overflow := make([]float64, 11)
	for i := range overflow {
		u := float64(i) / 10
		overflow[i] = -1e308*(1-u) + 1e308*u
	}
	logEdges, err := LogGrid(1e-4, 1e4, 161)
	if err != nil {
		t.Fatal(err)
	}
	// The queue-delay and speedup grids.
	delayEdges, err := LogGrid(1e-3, 1e7, 513)
	if err != nil {
		t.Fatal(err)
	}
	speedupEdges, err := LogGrid(1e-3, 1e3, 241)
	if err != nil {
		t.Fatal(err)
	}
	// A log grid from a subnormal lo: LogGrid still spaces it evenly in
	// log, and the lookup, whose guess needs normal edges, takes the search.
	subnormalEdges, err := LogGrid(1e-310, 1e-300, 40)
	if err != nil {
		t.Fatal(err)
	}
	ratio := subnormalEdges[1] / subnormalEdges[0]
	for i := 2; i < len(subnormalEdges); i++ {
		if r := subnormalEdges[i] / subnormalEdges[i-1]; math.Abs(r-ratio) > 1e-9*ratio {
			t.Fatalf("subnormal log grid: edge ratio %d is %v, edge ratio 1 is %v", i, r, ratio)
		}
	}
	// A log grid nudged by 0.7 bin: outside the half-bin tolerance.
	logSkewed := append([]float64(nil), logEdges...)
	logSkewed[80] *= math.Pow(1e8, 0.7/160)

	inf := math.Inf(1)
	cases := []struct {
		name         string
		hist         *Histogram
		uniform, log bool
	}{
		{"1 bin", mustHist(t, linGrid(t, 0, 1, 1)), true, false},
		{"2 bins", mustHist(t, linGrid(t, 0, 1, 2)), true, false},
		{"512 bins", mustHist(t, linGrid(t, 0, 1, 512)), true, false},
		{"513 bins", mustHist(t, linGrid(t, 0, 1, 513)), true, false},
		{"negative lo", mustHist(t, linGrid(t, -3.7, 2.1, 100)), true, false},
		{"1e-300 width", mustHist(t, linGrid(t, -1e-298, 1e-298, 200)), true, false},
		{"overflowing width", mustHist(t, overflow), false, false},
		{"-Inf first edge", mustHist(t, []float64{-inf, 0, 1, 2, 3}), false, false},
		{"+Inf last edge", mustHist(t, []float64{0, 0.25, 0.5, 0.75, 1, inf}), false, false},
		{"both infinite", mustHist(t, []float64{-inf, -1, 0, 1, inf}), false, false},
		{"log grid", mustHist(t, logEdges), false, true},
		{"queue-delay grid", mustHist(t, delayEdges), false, true},
		{"speedup grid", mustHist(t, speedupEdges), false, true},
		{"decoded log grid", snapshotEdges(t, logEdges), false, true},
		{"subnormal log grid", mustHist(t, subnormalEdges), false, false},
		{"skewed log grid", mustHist(t, logSkewed), false, false},
		{"skewed", mustHist(t, skewed), false, false},
		{"decoded fraction grid", snapshotEdges(t, linGrid(t, 0, 1, 512)), true, false},
		{"decoded near-uniform", snapshotEdges(t, near), true, false},
	}
	rng := rand.New(rand.NewSource(14))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.hist.grid.inv > 0; got != c.uniform {
				t.Fatalf("uniform = %v, want %v", got, c.uniform)
			}
			if got := c.hist.grid.logInv > 0; got != c.log {
				t.Fatalf("log-uniform = %v, want %v", got, c.log)
			}
			for _, x := range probes(c.hist.grid.edges, rng, 2000) {
				checkLocate(t, c.hist, x)
			}
		})
	}
}

func mustHist(t *testing.T, edges []float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGridShared: histograms on one Grid share its edges, merge without
// comparing them, and stay merge-compatible with an equal private grid.
func TestGridShared(t *testing.T) {
	edges := []float64{0, 1, 2, 3}
	g, err := NewGrid(edges)
	if err != nil {
		t.Fatal(err)
	}
	edges[1] = 1.5 // NewGrid copied its input
	a, b := NewGridHistogram(g), NewGridHistogram(g)
	a.Add(0.5)
	b.Add(2.5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	private, err := NewHistogram([]float64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	private.Add(1.5)
	if err := a.Merge(private); err != nil {
		t.Fatal(err)
	}
	if _, counts := a.Bins(); counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("merged counts = %v, want [1 1 1]", counts)
	}
	if _, err := NewGrid([]float64{0, math.NaN(), 1}); err == nil {
		t.Error("NaN edge accepted")
	}
}

// FuzzHistogramLocate fuzzes the bin lookup against the binary search on
// linear grids, or log grids (LogGrid over |lo|, |hi|) when logScale is
// set, with optional jitter of up to a bin: small jitter keeps the grid on
// the O(1) path with the correction walk at work; larger jitter sends it to
// the search.
func FuzzHistogramLocate(f *testing.F) {
	f.Add(0.0, 1.0, uint16(512), 0.0, 0.5, false)
	f.Add(-3.7, 2.1, uint16(1), 0.0, 2.1, false)
	f.Add(0.0, 1.0, uint16(513), 0.2, 0.3333333333333333, false)
	f.Add(-1e-298, 1e-298, uint16(200), 0.0, 1e-300, false)
	f.Add(1e3, 1e3+1e-9, uint16(7), 0.24, 1e3, false)
	f.Add(-1e308, 1e308, uint16(10), 0.0, 0.0, false)
	f.Add(1e-4, 1e4, uint16(159), 0.0, 0.3, true)
	f.Add(1e-3, 1e7, uint16(511), 0.2, 12.5, true)
	f.Add(1e-310, 1e300, uint16(2047), 0.1, 1e-305, true)
	f.Add(1.0, 1.0000001, uint16(30), 0.0, 1.00000005, true)
	f.Fuzz(func(t *testing.T, lo, hi float64, bins uint16, jitter, x float64, logScale bool) {
		n := int(bins%2048) + 2
		var edges []float64
		var err error
		if logScale {
			edges, err = LogGrid(math.Abs(lo), math.Abs(hi), n)
		} else {
			edges, err = LinGrid(lo, hi, n)
		}
		if err != nil {
			return
		}
		if !math.IsNaN(jitter) && !math.IsInf(jitter, 0) {
			j := math.Mod(jitter, 1)
			width := (hi - lo) / float64(len(edges)-1)
			ratio := math.Pow(edges[len(edges)-1]/edges[0], j/float64(len(edges)-1))
			for i := 1; i < len(edges)-1; i += 2 {
				if logScale {
					edges[i] *= ratio
				} else {
					edges[i] += j * width
				}
			}
		}
		h, err := NewHistogram(edges)
		if err != nil {
			return
		}
		for _, p := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
			checkLocate(t, h, p)
		}
		// The edges around x's bin, where a wrong guess would show.
		i := refBin(edges, x)
		for j := i - 1; j <= i+2; j++ {
			if j >= 0 && j < len(edges) {
				e := edges[j]
				checkLocate(t, h, e)
				checkLocate(t, h, math.Nextafter(e, math.Inf(-1)))
				checkLocate(t, h, math.Nextafter(e, math.Inf(1)))
			}
		}
	})
}
