package stats

import (
	"fmt"
	"math"
)

// MeanVar is a mergeable streaming accumulator of count, mean, variance and
// extrema (Welford's algorithm; merging uses the parallel variant of Chan et
// al.). It is the O(1)-memory substitute for Summarize on streams too large
// to hold, and the per-shard aggregate the streaming evaluation pipeline
// folds together. The zero value is an empty accumulator.
type MeanVar struct {
	n        float64
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add inserts one sample with weight 1. NaN samples are ignored.
func (a *MeanVar) Add(x float64) { a.AddWeighted(x, 1) }

// AddWeighted inserts one sample carrying weight w. Non-positive or NaN
// weights and NaN samples are ignored.
func (a *MeanVar) AddWeighted(x, w float64) {
	if math.IsNaN(x) || math.IsNaN(w) || w <= 0 {
		return
	}
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n += w
	a.sum += x * w
	d := x - a.mean
	a.mean += d * w / a.n
	a.m2 += w * d * (x - a.mean)
}

// Merge folds another accumulator into the receiver. Merging is associative
// and commutative up to floating-point rounding: merging per-shard
// accumulators equals accumulating the concatenated stream.
func (a *MeanVar) Merge(b *MeanVar) {
	if b == nil || b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*a.n*b.n/n
	a.mean += d * b.n / n
	a.sum += b.sum
	a.n = n
}

// N returns the total inserted weight.
func (a *MeanVar) N() float64 { return a.n }

// Sum returns the weighted sum of samples.
func (a *MeanVar) Sum() float64 { return a.sum }

// Mean returns the weighted mean, or 0 for an empty accumulator.
func (a *MeanVar) Mean() float64 { return a.mean }

// Var returns the population variance (weight-normalized), or 0 when fewer
// than two units of weight have been inserted.
func (a *MeanVar) Var() float64 {
	if a.n == 0 {
		return 0
	}
	return a.m2 / a.n
}

// Std returns the population standard deviation.
func (a *MeanVar) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest sample, or 0 for an empty accumulator.
func (a *MeanVar) Min() float64 { return a.min }

// Max returns the largest sample, or 0 for an empty accumulator.
func (a *MeanVar) Max() float64 { return a.max }

// Merge folds another histogram with identical bin edges into the receiver.
// Like MeanVar.Merge it is associative, so per-shard histograms fold into
// the bulk histogram exactly. Histograms on one shared Grid skip the
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
