package stats

import (
	"fmt"
	"math"
	"sync"
)

// Grid is an immutable, validated set of histogram bin edges. Histograms
// and sketches built on one Grid share its edges instead of copying them,
// and merge without comparing them edge by edge.
//
// NewGrid also records whether the edges are uniform or log-uniform, which
// lets a bin lookup start from an O(1) arithmetic guess instead of a binary
// search. The guess is corrected against the edges themselves, so the
// chosen bin is always exactly the one a binary search would pick.
type Grid struct {
	edges []float64 // len = bins+1, strictly increasing; never mutated
	// inv is 1/width on a uniform grid and 0 otherwise: the lookup's
	// arithmetic guess is int((x-edges[0])*inv).
	inv float64
	// logInv is 1/width in approxLog2 units on a log-uniform grid (positive
	// normal edges, as LogGrid builds them) and 0 otherwise; logLo is
	// approxLog2(edges[0]). The guess is int((approxLog2(x)-logLo)*logInv).
	logInv, logLo float64
	// sum is edgeChecksum(edges): the name a fixed grid travels under in
	// histogram snapshots.
	sum uint64
}

// NewGrid validates and copies the given bin edges. Edges must be strictly
// increasing with at least two entries.
func NewGrid(edges []float64) (*Grid, error) {
	return newGrid(append([]float64(nil), edges...))
}

// MustGrid is NewGrid for the fixed grids a package builds once at start-up
// from a grid constructor (LinGrid, LogGrid). It panics on an error, which
// only a bug in those constant arguments can cause. It also registers the
// grid under its edge checksum, so histogram snapshots on it carry the
// checksum instead of the edges and decode onto this very Grid. Two fixed
// grids with one checksum panic: snapshots could not tell them apart.
func MustGrid(edges []float64, err error) *Grid {
	if err != nil {
		panic(err)
	}
	g, err := NewGrid(edges)
	if err != nil {
		panic(err)
	}
	fixedGridsMu.Lock()
	defer fixedGridsMu.Unlock()
	if _, dup := fixedGrids[g.sum]; dup {
		panic(fmt.Sprintf("stats: MustGrid called twice for grid checksum %016x", g.sum))
	}
	fixedGrids[g.sum] = g
	return g
}

// fixedGrids maps the edge checksum of every MustGrid grid to that grid.
// Packages fill it at start-up; snapshot codecs read it.
var (
	fixedGridsMu sync.RWMutex
	fixedGrids   = map[uint64]*Grid{}
)

// fixedGrid returns the fixed grid registered under checksum sum, or nil.
func fixedGrid(sum uint64) *Grid {
	fixedGridsMu.RLock()
	defer fixedGridsMu.RUnlock()
	return fixedGrids[sum]
}

// fixed returns the registered fixed grid with g's edges: g itself, or for
// a grid built by NewGrid, the fixed grid it equals. It returns nil when no
// fixed grid has these edges.
func (g *Grid) fixed() *Grid {
	f := fixedGrid(g.sum)
	if f == nil || f == g || equalEdges(f.edges, g.edges) {
		return f
	}
	return nil
}

func equalEdges(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, e := range a {
		if math.Float64bits(e) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// edgeChecksum is FNV-64a over the little-endian bits of every edge.
func edgeChecksum(edges []float64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, e := range edges {
		b := math.Float64bits(e)
		for i := 0; i < 8; i++ {
			h = (h ^ b&0xff) * prime
			b >>= 8
		}
	}
	return h
}

// newGrid validates edges and adopts them without copying; the caller must
// not retain or mutate them.
func newGrid(edges []float64) (*Grid, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("stats: histogram needs >= 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("stats: histogram edges not increasing at %d", i)
		}
	}
	g := &Grid{edges: edges, inv: uniformInverse(edges), sum: edgeChecksum(edges)}
	if g.inv == 0 {
		g.logInv, g.logLo = logUniformInverse(edges)
	}
	return g, nil
}

// logUniformInverse is uniformInverse in log space: it returns 1/width and
// approxLog2(edges[0]) when every edge is a positive normal float and
// approxLog2 of each lies within half a bin of approxLog2(edges[0]) +
// i·width, and zeros otherwise. It measures in the lookup's own
// approximation, which is monotonic, so the guess for any x in a bin is
// within a step or two of it; a log grid from LogGrid passes whenever a bin
// is wider than twice the approximation's error. Decoded snapshots run it
// once per histogram, so it must stay cheap.
func logUniformInverse(edges []float64) (inv, lo float64) {
	last := edges[len(edges)-1]
	if !(edges[0] >= 0x1p-1022) || math.IsInf(last, 0) {
		return 0, 0
	}
	lo = approxLog2(edges[0])
	bins := len(edges) - 1
	width := (approxLog2(last) - lo) / float64(bins)
	inv = 1 / width
	if !(width > 0) || math.IsInf(inv, 0) {
		return 0, 0
	}
	for i, e := range edges {
		if !(math.Abs(approxLog2(e)-(lo+float64(i)*width)) <= width/2) {
			return 0, 0
		}
	}
	return inv, lo
}

// approxLog2 is a cheap, monotonic approximation of log2(x) for positive
// normal x, within 0.008 of the true value: the exponent plus a quadratic
// in the mantissa. The bin lookup only uses it as a starting guess.
func approxLog2(x float64) float64 {
	b := math.Float64bits(x)
	e := float64(int(b>>52&0x7ff) - 1023)
	m := math.Float64frombits(b&(1<<52-1)|1023<<52) - 1
	return e + m*(1.3465735903-0.3465735903*m)
}

// uniformInverse returns 1/width when every edge lies within a quarter bin
// of edges[0] + i·width, and 0 when the edges are not uniform (log grids,
// infinite edges, a range whose width overflows). The quarter-bin tolerance
// only bounds the lookup's correction walk to one step; exactness never
// depends on it.
func uniformInverse(edges []float64) float64 {
	bins := len(edges) - 1
	e0 := edges[0]
	width := (edges[bins] - e0) / float64(bins)
	inv := 1 / width
	if !(width > 0) || math.IsInf(width, 0) || math.IsInf(inv, 0) {
		return 0
	}
	for i, e := range edges {
		if !(math.Abs(e-(e0+float64(i)*width)) <= width/4) {
			return 0
		}
	}
	return inv
}

// locate returns the bin of x, the largest i with edges[i] <= x, for
// edges[0] <= x < edges[last].
func (g *Grid) locate(x float64) int {
	edges := g.edges
	last := len(edges) - 1
	var i int
	switch {
	case g.inv != 0:
		// x-edges[0] is finite and at most the grid's finite range, so the
		// guess is within a step of the answer.
		i = int((x - edges[0]) * g.inv)
	case g.logInv != 0:
		// x >= edges[0] is a positive normal float, and the guess is within
		// a step or two of the answer.
		i = int((approxLog2(x) - g.logLo) * g.logInv)
		if i < 0 {
			i = 0
		}
	default:
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
	// The walk makes the guess exact.
	if i >= last {
		i = last - 1
	}
	for edges[i] > x {
		i--
	}
	for edges[i+1] <= x {
		i++
	}
	return i
}

// Histogram is a fixed-bin histogram over float64 samples. Bins are
// half-open [lo, hi) except the last, which is closed.
type Histogram struct {
	grid   *Grid
	counts []float64 // weighted counts, len = bins
	total  float64
	under  float64 // weight below edges[0]
	over   float64 // weight at/above edges[last] (beyond closed last bin)
}

// NewHistogram creates a histogram with the given bin edges.
// Edges must be strictly increasing with at least two entries.
func NewHistogram(edges []float64) (*Histogram, error) {
	g, err := NewGrid(edges)
	if err != nil {
		return nil, err
	}
	return NewGridHistogram(g), nil
}

// NewGridHistogram creates an empty histogram over a shared grid built by
// NewGrid.
func NewGridHistogram(g *Grid) *Histogram {
	return &Histogram{grid: g, counts: make([]float64, len(g.edges)-1)}
}

// Add inserts a sample with weight 1.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted inserts a sample with the given weight. NaN samples and
// non-positive or NaN weights are ignored.
func (h *Histogram) AddWeighted(x, w float64) {
	if math.IsNaN(x) || math.IsNaN(w) || w <= 0 {
		return
	}
	h.add(x, w)
}

// add inserts a sample the caller has already checked.
func (h *Histogram) add(x, w float64) {
	h.total += w
	edges := h.grid.edges
	if x < edges[0] {
		h.under += w
		return
	}
	last := len(edges) - 1
	if x > edges[last] {
		h.over += w
		return
	}
	if x == edges[last] {
		h.counts[last-1] += w
		return
	}
	h.counts[h.grid.locate(x)] += w
}

// Footprint estimates the histogram's resident bytes: its bin counts plus
// a fixed overhead. The grid is shared, so it is not counted.
func (h *Histogram) Footprint() int64 { return int64(len(h.counts))*8 + 96 }

// Bins returns copies of the bin edges and weighted counts.
func (h *Histogram) Bins() (edges, counts []float64) {
	return append([]float64(nil), h.grid.edges...), append([]float64(nil), h.counts...)
}

// Total returns the total inserted weight including out-of-range samples.
func (h *Histogram) Total() float64 { return h.total }

// OutOfRange returns the weight that fell below the first edge and above the
// last edge.
func (h *Histogram) OutOfRange() (under, over float64) { return h.under, h.over }

// Fractions returns counts normalized by total in-range weight; all zeros if
// nothing in range.
func (h *Histogram) Fractions() []float64 {
	inRange := h.total - h.under - h.over
	out := make([]float64, len(h.counts))
	if inRange <= 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = c / inRange
	}
	return out
}
