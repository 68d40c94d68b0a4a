package stats

import (
	"fmt"
	"math"
)

// Distribution is the read surface shared by the exact empirical CDF and the
// fixed-memory Sketch, so report renderers and figure pipelines accept
// either: materialized traces keep their exact CDFs, streamed traces supply
// sketches.
type Distribution interface {
	// Quantile returns the q-quantile (q clamped to [0, 1]).
	Quantile(q float64) float64
	// P returns the cumulative probability P(X <= x).
	P(x float64) float64
}

// Compile-time interface checks: both distribution implementations satisfy
// the shared read surface.
var (
	_ Distribution = (*CDF)(nil)
	_ Distribution = (*Sketch)(nil)
)

// Sketch is a fixed-memory, mergeable quantile sketch: a fixed-bin weighted
// histogram for the distribution's body plus the exact extrema. It is the
// streaming substitute for the exact CDF on traces too large to
// materialize — memory is O(bins) regardless of how many samples are folded
// in. Sketches with identical edges merge exactly: bin weights are sums of
// the sample weights, which stay exact for integral weights below 2^53 (job
// and cNode counts), and min/max are exact, so any split of a stream, merged
// in any order, gives the sketch (and the snapshot bytes) of one bulk fold.
//
// Accuracy: quantiles are interpolated within bins, so the absolute error of
// Quantile(q) for interior q is bounded by one bin width at the answer
// (plus clamping to the exact [Min, Max]); q = 0 and q = 1 are exact, served
// from the tracked extrema. P(x) has error bounded by the weight fraction of
// x's bin. The zero value is not usable; build sketches with NewSketch,
// NewGridSketch, NewLinearSketch or NewLogSketch.
type Sketch struct {
	hist     *Histogram
	min, max float64
}

// NewSketch builds a sketch over the given bin edges (strictly increasing,
// at least two).
func NewSketch(edges []float64) (*Sketch, error) {
	g, err := NewGrid(edges)
	if err != nil {
		return nil, err
	}
	return NewGridSketch(g), nil
}

// NewGridSketch builds an empty sketch over a shared grid built by NewGrid.
// Every sketch of a family should share one Grid: the edges are stored
// once, bin lookups on a uniform grid are O(1), and merges skip the edge
// comparison.
func NewGridSketch(g *Grid) *Sketch {
	return &Sketch{hist: NewGridHistogram(g)}
}

// NewLinearSketch builds a sketch with bins uniform bins over [lo, hi] —
// the right shape for bounded quantities like time fractions in [0, 1].
func NewLinearSketch(lo, hi float64, bins int) (*Sketch, error) {
	edges, err := LinGrid(lo, hi, bins+1)
	if err != nil {
		return nil, err
	}
	return NewSketch(edges)
}

// NewLogSketch builds a sketch with bins log-spaced bins over [lo, hi] —
// the right shape for scale-free positive quantities like step times or
// speedups, where relative (not absolute) error should be flat.
func NewLogSketch(lo, hi float64, bins int) (*Sketch, error) {
	edges, err := LogGrid(lo, hi, bins+1)
	if err != nil {
		return nil, err
	}
	return NewSketch(edges)
}

// Add folds in one sample with weight 1.
func (s *Sketch) Add(x float64) { s.AddWeighted(x, 1) }

// AddWeighted folds in one sample carrying weight w. NaN samples and
// non-positive or NaN weights are ignored.
func (s *Sketch) AddWeighted(x, w float64) {
	if math.IsNaN(x) || math.IsNaN(w) || w <= 0 {
		return
	}
	if s.hist.total == 0 {
		s.min, s.max = x, x
	} else if x < s.min {
		s.min = x
	} else if x > s.max {
		s.max = x
	}
	s.hist.add(x, w)
}

// Merge folds another sketch into the receiver. The sketches must share
// identical bin edges; merging is exact, so per-shard sketches fold into
// the bulk sketch exactly.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil {
		return nil
	}
	wasEmpty := s.hist.total == 0
	if err := s.hist.Merge(o.hist); err != nil {
		return err
	}
	if o.hist.total == 0 {
		return nil
	}
	if wasEmpty || o.min < s.min {
		s.min = o.min
	}
	if wasEmpty || o.max > s.max {
		s.max = o.max
	}
	return nil
}

// Weight returns the total folded weight.
func (s *Sketch) Weight() float64 { return s.hist.total }

// Min returns the exact smallest folded sample, or 0 when empty.
func (s *Sketch) Min() float64 { return s.min }

// Max returns the exact largest folded sample, or 0 when empty.
func (s *Sketch) Max() float64 { return s.max }

// Footprint estimates the sketch's resident bytes (see
// Histogram.Footprint).
func (s *Sketch) Footprint() int64 { return s.hist.Footprint() + 16 }

// Quantile returns the interpolated q-quantile (q clamped to [0, 1]), or NaN
// when the sketch is empty. The boundaries are exact: q = 0 returns Min and
// q = 1 returns Max, matching the exact-CDF path; interior estimates are
// clamped into [Min, Max] so a sparse histogram can never report a value
// outside the observed range.
func (s *Sketch) Quantile(q float64) float64 {
	if s.hist.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	v, err := s.hist.Quantile(q)
	if err != nil {
		return math.NaN()
	}
	return math.Min(math.Max(v, s.min), s.max)
}

// P returns the interpolated cumulative probability P(X <= x), or NaN when
// the sketch is empty. Out-of-range mass is interpolated between the exact
// extrema and the outer edges, so P is 0 below Min and 1 at or above Max —
// again matching the exact-CDF boundaries.
func (s *Sketch) P(x float64) float64 {
	total := s.hist.Total()
	if total <= 0 {
		return math.NaN()
	}
	min, max := s.min, s.max
	if x < min {
		return 0
	}
	if x >= max {
		return 1
	}
	edges, counts := s.hist.grid.edges, s.hist.counts
	first, last := edges[0], edges[len(edges)-1]
	cum := 0.0
	switch {
	case x < first:
		// Inside the under-range mass: uniform between Min and the first edge.
		if s.hist.under > 0 && first > min {
			cum = s.hist.under * (x - min) / (first - min)
		}
	case x >= last:
		// Inside the over-range mass: uniform between the last edge and Max.
		cum = total - s.hist.over
		if s.hist.over > 0 && max > last {
			cum += s.hist.over * (x - last) / (max - last)
		}
	default:
		cum = s.hist.under
		for i, c := range counts {
			if x >= edges[i+1] {
				cum += c
				continue
			}
			cum += c * (x - edges[i]) / (edges[i+1] - edges[i])
			break
		}
	}
	return math.Min(math.Max(cum/total, 0), 1)
}

// Edges returns a copy of the sketch's bin edges (the merge compatibility
// contract: only sketches with identical edges merge).
func (s *Sketch) Edges() []float64 {
	edges, _ := s.hist.Bins()
	return edges
}

// sketchVersion tags the Sketch binary snapshot layout.
const sketchVersion = 2

// MarshalBinary encodes the sketch as a versioned snapshot: the extrema,
// then the histogram snapshot, whose fixed grid travels by checksum and any
// other grid by its edges (see Histogram.MarshalBinary), so any process
// that builds the same fixed grids can decode and merge it. Identical
// sketch state always yields identical bytes.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	h, err := s.hist.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := newStatsWriter(32 + len(h))
	w.U8(sketchVersion)
	w.F64(s.min)
	w.F64(s.max)
	w.Raw(h)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary, replacing
// the receiver's state.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := newStatsReader(data)
	if v := r.U8(); r.Err() == nil && v != sketchVersion {
		return fmt.Errorf("stats: sketch snapshot version %d, want %d", v, sketchVersion)
	}
	min, max := r.F64(), r.F64()
	hRaw := r.View()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stats: sketch snapshot: %w", err)
	}
	var h Histogram
	if err := h.UnmarshalBinary(hRaw); err != nil {
		return err
	}
	// Quantile and P clamp to the extrema: an empty sketch has none, and a
	// non-empty one needs an ordered pair.
	if h.total == 0 && (min != 0 || max != 0) {
		return fmt.Errorf("stats: empty sketch snapshot has extrema [%v, %v]", min, max)
	}
	if h.total > 0 && !(min <= max) {
		return fmt.Errorf("stats: sketch snapshot has extrema %v > %v", min, max)
	}
	*s = Sketch{hist: &h, min: min, max: max}
	return nil
}
