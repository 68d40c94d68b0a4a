package stats

import (
	"fmt"
	"math"

	"repro/internal/binenc"
)

// Binary snapshot codecs for the mergeable accumulators. Every layout is
// versioned independently so a future change to one accumulator does not
// invalidate snapshots of the others, and every float64 travels as its raw
// IEEE-754 bits, so a decoded accumulator is bit-identical to the encoded
// one — the property the multi-process merge path builds on.
const (
	meanVarVersion   = 1
	histogramVersion = 1
)

// newStatsWriter and newStatsReader keep the codec helpers nameable inside
// the package without importing binenc at every call site.
func newStatsWriter(capacity int) *binenc.Writer { return binenc.NewWriter(capacity) }
func newStatsReader(data []byte) *binenc.Reader  { return binenc.NewReader(data) }

// MarshalBinary encodes the accumulator's exact state.
func (a *MeanVar) MarshalBinary() ([]byte, error) {
	w := newStatsWriter(1 + 6*8)
	w.U8(meanVarVersion)
	w.F64(a.n)
	w.F64(a.mean)
	w.F64(a.m2)
	w.F64(a.min)
	w.F64(a.max)
	w.F64(a.sum)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (a *MeanVar) UnmarshalBinary(data []byte) error {
	r := newStatsReader(data)
	if v := r.U8(); r.Err() == nil && v != meanVarVersion {
		return fmt.Errorf("stats: MeanVar snapshot version %d, want %d", v, meanVarVersion)
	}
	var b MeanVar
	b.n = r.F64()
	b.mean = r.F64()
	b.m2 = r.F64()
	b.min = r.F64()
	b.max = r.F64()
	b.sum = r.F64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stats: MeanVar snapshot: %w", err)
	}
	if math.IsNaN(b.n) || b.n < 0 {
		return fmt.Errorf("stats: MeanVar snapshot has invalid weight %v", b.n)
	}
	*a = b
	return nil
}

// MarshalBinary encodes the histogram — edges included, so the snapshot is
// self-describing and the decoder can enforce merge compatibility.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	w := newStatsWriter(1 + 8*(len(h.grid.edges)+len(h.counts)+3))
	w.U8(histogramVersion)
	w.F64s(h.grid.edges)
	w.F64s(h.counts)
	w.F64(h.total)
	w.F64(h.under)
	w.F64(h.over)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
// The edge and count invariants are re-validated, so corrupted snapshots
// fail here instead of corrupting later merges. The decoded edges become the
// histogram's own Grid without a second copy.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	r := newStatsReader(data)
	if v := r.U8(); r.Err() == nil && v != histogramVersion {
		return fmt.Errorf("stats: histogram snapshot version %d, want %d", v, histogramVersion)
	}
	edges := r.F64s()
	counts := r.F64s()
	total := r.F64()
	under := r.F64()
	over := r.F64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stats: histogram snapshot: %w", err)
	}
	g, err := newGrid(edges)
	if err != nil {
		return fmt.Errorf("stats: histogram snapshot: %w", err)
	}
	if len(counts) != len(edges)-1 {
		return fmt.Errorf("stats: histogram snapshot has %d counts for %d edges", len(counts), len(edges))
	}
	for i, c := range counts {
		if math.IsNaN(c) || c < 0 {
			return fmt.Errorf("stats: histogram snapshot has invalid count %v in bin %d", c, i)
		}
	}
	for _, v := range []float64{total, under, over} {
		if math.IsNaN(v) || v < 0 {
			return fmt.Errorf("stats: histogram snapshot has invalid weight %v", v)
		}
	}
	*h = Histogram{grid: g, counts: counts, total: total, under: under, over: over}
	return nil
}
