package stats

import (
	"fmt"
	"math"
	"math/big"
)

// MeanVar is a mergeable streaming accumulator of weight, mean, variance
// and extrema. It keeps the exact sums Σw, Σw·x and Σw·x² (ExactSum, with
// each product split exactly by TwoProduct) and rounds mean and variance
// once, when they are read. Merging is therefore exactly associative and
// commutative: any split of a stream, merged in any order, leaves the same
// state as accumulating the stream in one piece. It is the O(1)-memory
// substitute for Summarize on streams too large to hold. The zero value is
// an empty accumulator.
type MeanVar struct {
	// units counts the unit-weight samples; w sums the other weights.
	units     uint64
	w, s1, s2 ExactSum
	min, max  float64
	// nonEmpty turns true with the first accepted sample; it guards the
	// extrema.
	nonEmpty bool
}

// Add inserts one sample with weight 1. NaN samples are ignored.
func (a *MeanVar) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	a.extrema(x)
	a.units++
	a.s1.Add(x)
	a.s2.AddProduct(x, x)
}

// AddWeighted inserts one sample carrying weight w. Non-positive or NaN
// weights and NaN samples are ignored.
func (a *MeanVar) AddWeighted(x, w float64) {
	if w == 1 {
		a.Add(x)
		return
	}
	if math.IsNaN(x) || math.IsNaN(w) || w <= 0 {
		return
	}
	a.extrema(x)
	a.w.Add(w)
	a.s1.AddProduct(x, w)
	// w·x² = (x·w)·x, each product split exactly.
	p := x * w
	a.s2.AddProduct(p, x)
	a.s2.AddProduct(math.FMA(x, w, -p), x)
}

func (a *MeanVar) extrema(x float64) {
	if !a.nonEmpty || x < a.min {
		a.min = x
	}
	if !a.nonEmpty || x > a.max {
		a.max = x
	}
	a.nonEmpty = true
}

// Merge folds another accumulator into the receiver. Merging is exact, so
// merging per-shard accumulators in any grouping and order equals
// accumulating the concatenated stream.
func (a *MeanVar) Merge(b *MeanVar) {
	if b == nil || !b.nonEmpty {
		return
	}
	a.extrema(b.min)
	a.extrema(b.max)
	a.units += b.units
	a.w.Merge(&b.w)
	a.s1.Merge(&b.s1)
	a.s2.Merge(&b.s2)
}

// weight returns the exact total weight.
func (a *MeanVar) weight() *ExactSum {
	w := a.w
	w.Add(float64(a.units))
	return &w
}

// N returns the total inserted weight.
func (a *MeanVar) N() float64 { return a.weight().Float64() }

// Sum returns the weighted sum of samples, correctly rounded.
func (a *MeanVar) Sum() float64 { return a.s1.Float64() }

// Mean returns the weighted mean Σw·x / Σw, correctly rounded, or 0 for an
// empty accumulator.
func (a *MeanVar) Mean() float64 {
	if !a.nonEmpty {
		return 0
	}
	return quo(a.s1.scaled(), a.weight().scaled())
}

// Var returns the population variance (weight-normalized),
// (Σw·Σw·x² − (Σw·x)²) / (Σw)², computed exactly and rounded once; 0 for an
// empty accumulator.
func (a *MeanVar) Var() float64 {
	if !a.nonEmpty {
		return 0
	}
	// With every sum scaled by 2^1074 the scale cancels: W·S2 − S1² over W².
	w, s1, s2 := a.weight().scaled(), a.s1.scaled(), a.s2.scaled()
	num := new(big.Int).Mul(w, s2)
	num.Sub(num, new(big.Int).Mul(s1, s1))
	if num.Sign() <= 0 {
		return 0
	}
	return quo(num, new(big.Int).Mul(w, w))
}

// quo returns num/den correctly rounded to float64 in the normal range.
func quo(num, den *big.Int) float64 {
	if den.Sign() == 0 {
		return 0
	}
	n := new(big.Float).SetInt(num)
	d := new(big.Float).SetInt(den)
	q, _ := new(big.Float).SetPrec(53).Quo(n, d).Float64()
	return q
}

// Std returns the population standard deviation.
func (a *MeanVar) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest sample, or 0 for an empty accumulator.
func (a *MeanVar) Min() float64 { return a.min }

// Max returns the largest sample, or 0 for an empty accumulator.
func (a *MeanVar) Max() float64 { return a.max }

// Merge folds another histogram with identical bin edges into the receiver.
// Bin counts are sums of weights; with integral weights below 2^53 (job
// counts, cNode counts) every sum is exact, so per-shard histograms fold
// into the bulk histogram exactly, in any order. Histograms on one shared Grid skip the
// edge-by-edge comparison.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.grid != o.grid {
		he, oe := h.grid.edges, o.grid.edges
		if len(he) != len(oe) {
			return fmt.Errorf("stats: merge of histograms with %d vs %d edges", len(he), len(oe))
		}
		for i, e := range he {
			if e != oe[i] {
				return fmt.Errorf("stats: merge of histograms with mismatched edge %d (%v vs %v)", i, e, oe[i])
			}
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	h.under += o.under
	h.over += o.over
	return nil
}

// Quantile returns an interpolated q-quantile of the in-range weight,
// assuming samples are uniform within each bin. Out-of-range weight is
// clamped to the outer edges. It errors when the histogram is empty.
//
// The boundaries are pinned so the sketch and exact-CDF paths agree there:
// q = 0 is the lower edge of the histogram's occupied support (not
// unconditionally the first edge) and q = 1 is its upper edge (the top of
// the last non-empty bin, or the last edge when over-range weight exists).
// Interior quantiles land on the occupied support too, so accumulated
// floating-point drift in the bin scan can never push q = 1 past it.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if h.total <= 0 {
		return 0, ErrEmpty
	}
	if q <= 0 {
		return h.supportMin(), nil
	}
	if q >= 1 {
		return h.supportMax(), nil
	}
	edges := h.grid.edges
	target := q * h.total
	if h.under > 0 && target <= h.under {
		return edges[0], nil
	}
	run := h.under
	for i, c := range h.counts {
		if run+c >= target && c > 0 {
			frac := (target - run) / c
			return edges[i] + frac*(edges[i+1]-edges[i]), nil
		}
		run += c
	}
	return h.supportMax(), nil
}

// supportMin is the lower edge of the occupied support: the first edge when
// under-range weight exists, else the lower edge of the first non-empty bin.
func (h *Histogram) supportMin() float64 {
	edges := h.grid.edges
	if h.under > 0 {
		return edges[0]
	}
	for i, c := range h.counts {
		if c > 0 {
			return edges[i]
		}
	}
	return edges[len(edges)-1]
}

// supportMax is the upper edge of the occupied support: the last edge when
// over-range weight exists, else the upper edge of the last non-empty bin.
func (h *Histogram) supportMax() float64 {
	edges := h.grid.edges
	if h.over > 0 {
		return edges[len(edges)-1]
	}
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] > 0 {
			return edges[i+1]
		}
	}
	return edges[0]
}
