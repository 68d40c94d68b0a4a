package stats

import (
	"fmt"
	"math"

	"repro/internal/binenc"
)

// Binary snapshot codecs for the mergeable accumulators. Every layout is
// versioned independently so a future change to one accumulator does not
// invalidate snapshots of the others, and every float64 travels as its raw
// IEEE-754 bits (exact sums as their canonical digits), so a decoded
// accumulator is bit-identical to the encoded one — the property the
// multi-process merge path builds on.
const (
	meanVarVersion   = 2
	histogramVersion = 1
)

// newStatsWriter and newStatsReader keep the codec helpers nameable inside
// the package without importing binenc at every call site.
func newStatsWriter(capacity int) *binenc.Writer { return binenc.NewWriter(capacity) }
func newStatsReader(data []byte) *binenc.Reader  { return binenc.NewReader(data) }

// MarshalBinary encodes the accumulator's exact state: the unit-weight
// count, the three exact sums in their compact form, then the extrema.
func (a *MeanVar) MarshalBinary() ([]byte, error) {
	w := newStatsWriter(64)
	w.U8(meanVarVersion)
	w.Uvarint(a.units)
	a.w.AppendBinary(w)
	a.s1.AppendBinary(w)
	a.s2.AppendBinary(w)
	w.F64(a.min)
	w.F64(a.max)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (a *MeanVar) UnmarshalBinary(data []byte) error {
	r := newStatsReader(data)
	if v := r.U8(); r.Err() == nil && v != meanVarVersion {
		return fmt.Errorf("stats: MeanVar snapshot version %d, want %d", v, meanVarVersion)
	}
	var b MeanVar
	b.units = r.Uvarint()
	for _, s := range []*ExactSum{&b.w, &b.s1, &b.s2} {
		if err := s.ReadBinary(r); err != nil {
			return fmt.Errorf("stats: MeanVar snapshot: %w", err)
		}
	}
	b.min = r.F64()
	b.max = r.F64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stats: MeanVar snapshot: %w", err)
	}
	if b.w.special != 0 || b.w.Sign() < 0 {
		return fmt.Errorf("stats: MeanVar snapshot has invalid weight %v", b.w.Float64())
	}
	b.nonEmpty = b.units > 0 || !b.w.IsZero()
	if !b.nonEmpty && (b.min != 0 || b.max != 0 || !b.s1.IsZero() || !b.s2.IsZero()) {
		return fmt.Errorf("stats: MeanVar snapshot has no weight but holds samples")
	}
	if b.nonEmpty && !(b.min <= b.max) {
		return fmt.Errorf("stats: MeanVar snapshot has extrema %v > %v", b.min, b.max)
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
