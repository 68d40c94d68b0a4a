// Package stats provides the small statistical toolkit used throughout the
// workload characterization pipelines: empirical CDFs (plain and weighted),
// histograms, quantiles, and summary statistics.
//
// Every figure in the paper is either a CDF (Figs. 6, 8, 9, 10, 15, 16), an
// average/percentage bar (Figs. 5, 7, 12, 13) or a parameter sweep of averages
// (Fig. 11); this package supplies the primitives for all of them.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by constructors that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// CDF is an empirical cumulative distribution function over float64 samples.
// Samples may carry weights; an unweighted CDF is a weighted CDF with all
// weights equal to one.
type CDF struct {
	// xs are the sorted distinct sample values.
	xs []float64
	// cum[i] is the cumulative weight of all samples <= xs[i], normalized to 1.
	cum []float64
	// totalWeight is the sum of all sample weights before normalization.
	totalWeight float64
	n           int
}

// NewCDF builds an empirical CDF from unweighted samples.
func NewCDF(samples []float64) (*CDF, error) {
	w := make([]float64, len(samples))
	for i := range w {
		w[i] = 1
	}
	return NewWeightedCDF(samples, w)
}

// NewWeightedCDF builds an empirical CDF where sample i carries weights[i].
// It returns an error if the inputs are empty, of mismatched length, or if
// any weight is negative or the total weight is zero.
func NewWeightedCDF(samples, weights []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	if len(samples) != len(weights) {
		return nil, fmt.Errorf("stats: %d samples but %d weights", len(samples), len(weights))
	}
	type sw struct{ x, w float64 }
	pairs := make([]sw, 0, len(samples))
	var total float64
	for i, x := range samples {
		if math.IsNaN(x) {
			return nil, fmt.Errorf("stats: NaN sample at index %d", i)
		}
		w := weights[i]
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("stats: invalid weight %v at index %d", w, i)
		}
		if w == 0 {
			continue
		}
		pairs = append(pairs, sw{x, w})
		total += w
	}
	if total <= 0 {
		return nil, errors.New("stats: total weight is zero")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].x < pairs[j].x })

	c := &CDF{totalWeight: total, n: len(pairs)}
	var run float64
	for i := 0; i < len(pairs); {
		j := i
		var w float64
		for j < len(pairs) && pairs[j].x == pairs[i].x {
			w += pairs[j].w
			j++
		}
		run += w
		c.xs = append(c.xs, pairs[i].x)
		c.cum = append(c.cum, run/total)
		i = j
	}
	// Guard against floating-point drift: the last cumulative value is 1.
	c.cum[len(c.cum)-1] = 1
	return c, nil
}

// N reports the number of (non-zero-weight) samples the CDF was built from.
func (c *CDF) N() int { return c.n }

// TotalWeight reports the pre-normalization total weight.
func (c *CDF) TotalWeight() float64 { return c.totalWeight }

// P returns the cumulative probability P(X <= x).
func (c *CDF) P(x float64) float64 {
	// Index of the first value > x.
	i := sort.SearchFloat64s(c.xs, x)
	if i < len(c.xs) && c.xs[i] == x {
		return c.cum[i]
	}
	if i == 0 {
		return 0
	}
	return c.cum[i-1]
}

// Quantile returns the smallest sample value v such that P(X <= v) >= q.
// q is clamped to [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] >= q })
	if i == len(c.cum) {
		i = len(c.cum) - 1
	}
	return c.xs[i]
}

// Min returns the smallest sample value.
func (c *CDF) Min() float64 { return c.xs[0] }

// Max returns the largest sample value.
func (c *CDF) Max() float64 { return c.xs[len(c.xs)-1] }

// Mean returns the weighted mean of the samples.
func (c *CDF) Mean() float64 {
	var mean, prev float64
	for i, x := range c.xs {
		p := c.cum[i] - prev
		mean += x * p
		prev = c.cum[i]
	}
	return mean
}

// Points returns the (x, P(X<=x)) support points of the CDF, suitable for
// plotting the step function. The returned slices are copies.
func (c *CDF) Points() (xs, ps []float64) {
	xs = append([]float64(nil), c.xs...)
	ps = append([]float64(nil), c.cum...)
	return xs, ps
}

// Sample evaluates the CDF on a fixed grid of x values, returning P(X<=x)
// for each. Useful for rendering figure series at fixed resolution.
func (c *CDF) Sample(grid []float64) []float64 {
	out := make([]float64, len(grid))
	for i, x := range grid {
		out[i] = c.P(x)
	}
	return out
}

// Summary holds basic descriptive statistics of a sample set.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	P25, P50, P75  float64
	P90, P95, P99  float64
	Total          float64
	WeightedByUnit bool
}

// Summarize computes descriptive statistics of unweighted samples.
func Summarize(samples []float64) (Summary, error) {
	c, err := NewCDF(samples)
	if err != nil {
		return Summary{}, err
	}
	var total float64
	for _, x := range samples {
		total += x
	}
	mean := total / float64(len(samples))
	var ss float64
	for _, x := range samples {
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if len(samples) > 1 {
		std = math.Sqrt(ss / float64(len(samples)-1))
	}
	return Summary{
		N: len(samples), Mean: mean, Std: std,
		Min: c.Min(), Max: c.Max(),
		P25: c.Quantile(0.25), P50: c.Quantile(0.50), P75: c.Quantile(0.75),
		P90: c.Quantile(0.90), P95: c.Quantile(0.95), P99: c.Quantile(0.99),
		Total: total,
	}, nil
}

// WeightedMean returns sum(x*w)/sum(w).
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ws) {
		return 0, fmt.Errorf("stats: %d values but %d weights", len(xs), len(ws))
	}
	var num, den float64
	for i := range xs {
		num += xs[i] * ws[i]
		den += ws[i]
	}
	if den == 0 {
		return 0, errors.New("stats: total weight is zero")
	}
	return num / den, nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// FractionAbove returns the fraction of samples strictly greater than
// threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionBelow returns the fraction of samples strictly less than threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// LogGrid returns n points logarithmically spaced between lo and hi
// (inclusive). lo and hi must be positive with lo < hi and n >= 2.
func LogGrid(lo, hi float64, n int) ([]float64, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: invalid log grid bounds [%v, %v]", lo, hi)
	}
	if n < 2 {
		return nil, fmt.Errorf("stats: log grid needs n >= 2, got %d", n)
	}
	out := make([]float64, n)
	llo, lhi := logPositive(lo), logPositive(hi)
	for i := 0; i < n; i++ {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	out[0], out[n-1] = lo, hi
	return out, nil
}

// logPositive is math.Log for x > 0. A subnormal x is split by Frexp into a
// normal fraction and a power of two first: math.Log misreads subnormals on
// linux/amd64 (−709.09 for 1e-310, true −713.80). Normal x takes math.Log
// unchanged, so every normal grid keeps its exact edges.
func logPositive(x float64) float64 {
	if x < 0x1p-1022 {
		frac, exp := math.Frexp(x)
		return math.Log(frac) + float64(exp)*math.Ln2
	}
	return math.Log(x)
}

// LinGrid returns n points linearly spaced between lo and hi (inclusive).
func LinGrid(lo, hi float64, n int) ([]float64, error) {
	if hi <= lo {
		return nil, fmt.Errorf("stats: invalid grid bounds [%v, %v]", lo, hi)
	}
	if n < 2 {
		return nil, fmt.Errorf("stats: grid needs n >= 2, got %d", n)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out, nil
}
