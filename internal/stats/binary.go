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
	histogramVersion = 2
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

// Histogram snapshot layout (histogramVersion 2): the version, a form
// byte, the grid, then the counts. The form's bits say how each travels:
//
//   - formFixedGrid set: the grid is a fixed one (MustGrid) and travels as
//     its bin count and edge checksum; clear: as its edge list.
//   - formIntCounts set: every count is an integer and the counts travel
//     sparse, as the number of non-zero bins, a (gap, count) uvarint pair
//     per non-zero bin (the gap counts the empty bins skipped since the
//     last one), then under and over; the total is their sum. Clear: dense
//     float64 counts, then total, under and over.
//
// The form is a function of the state alone, and the decoder rejects any
// other spelling of a state, so decoding and re-encoding gives back the
// input bytes.
const (
	formFixedGrid = 1 << iota
	formIntCounts
)

// maxCount bounds the counts of the integer form: every integer up to 2^53
// is a float64.
const maxCount = 1 << 53

// isCount reports whether v is an integer count of the integer form.
func isCount(v float64) bool { return v >= 0 && v <= maxCount && v == float64(int64(v)) }

// intForm reports whether the histogram's counts take the integer form:
// every count, under and over an integer in [0, 2^53], and the total their
// exact sum. It also returns the number of non-zero bins.
func (h *Histogram) intForm() (nonZero int, ok bool) {
	var sum uint64
	for _, c := range h.counts {
		if !isCount(c) {
			return 0, false
		}
		if c != 0 {
			nonZero++
			if sum += uint64(c); sum > math.MaxInt64 {
				return 0, false
			}
		}
	}
	if !isCount(h.under) || !isCount(h.over) {
		return 0, false
	}
	sum += uint64(h.under) + uint64(h.over)
	return nonZero, h.total == float64(sum) && uint64(h.total) == sum
}

// MarshalBinary encodes the histogram. A fixed grid travels by checksum and
// any other grid by its edges, so every snapshot decodes on its own in any
// process that registered the same fixed grids. Integer counts travel as
// sparse varints, others as float64 bits.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	fixed := h.grid.fixed() != nil
	nonZero, ints := h.intForm()
	size, form := 24, uint8(0)
	if fixed {
		form |= formFixedGrid
	} else {
		size += 8 * len(h.grid.edges)
	}
	if ints {
		form |= formIntCounts
		size += 4 * nonZero
	} else {
		size += 8 * len(h.counts)
	}
	w := newStatsWriter(size)
	w.U8(histogramVersion)
	w.U8(form)
	if fixed {
		w.Int(len(h.counts))
		w.U64(h.grid.sum)
	} else {
		w.F64s(h.grid.edges)
	}
	if !ints {
		w.F64Col(h.counts)
		w.F64(h.total)
		w.F64(h.under)
		w.F64(h.over)
		return w.Bytes(), nil
	}
	w.Int(nonZero)
	next := 0
	for i, c := range h.counts {
		if c != 0 {
			w.Int(i - next)
			w.Uvarint(uint64(c))
			next = i + 1
		}
	}
	w.Uvarint(uint64(h.under))
	w.Uvarint(uint64(h.over))
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
// A fixed grid's checksum must name a registered grid with the same bin
// count, and the histogram then shares that Grid; spelled-out edges are
// re-validated. Counts that no fold can produce, and any spelling of a
// state other than the one MarshalBinary writes, fail here instead of
// corrupting later merges.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	r := newStatsReader(data)
	if v := r.U8(); r.Err() == nil && v != histogramVersion {
		return fmt.Errorf("stats: histogram snapshot version %d, want %d", v, histogramVersion)
	}
	form := r.U8()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stats: histogram snapshot: %w", err)
	}
	if form&^(formFixedGrid|formIntCounts) != 0 {
		return fmt.Errorf("stats: histogram snapshot form %#x", form)
	}
	g, err := readGrid(r, form&formFixedGrid != 0)
	if err != nil {
		return fmt.Errorf("stats: histogram snapshot: %w", err)
	}
	out := Histogram{grid: g, counts: make([]float64, len(g.edges)-1)}
	if form&formIntCounts != 0 {
		err = out.readIntCounts(r)
	} else {
		err = out.readFloatCounts(r)
	}
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Len())
	}
	if err != nil {
		return fmt.Errorf("stats: histogram snapshot: %w", err)
	}
	*h = out
	return nil
}

// readGrid reads a snapshot's grid: a registered fixed grid named by bin
// count and checksum, or validated edges that no fixed grid has.
func readGrid(r *binenc.Reader, fixed bool) (*Grid, error) {
	if !fixed {
		edges := r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		g, err := newGrid(edges)
		if err != nil {
			return nil, err
		}
		if g.fixed() != nil {
			return nil, fmt.Errorf("edges of fixed grid %016x spelled out", g.sum)
		}
		return g, nil
	}
	bins := r.Scalar()
	sum := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	g := fixedGrid(sum)
	if g == nil {
		return nil, fmt.Errorf("unknown grid checksum %016x (%d bins)", sum, bins)
	}
	if len(g.edges)-1 != bins {
		return nil, fmt.Errorf("grid checksum %016x names %d bins, snapshot has %d", sum, len(g.edges)-1, bins)
	}
	return g, nil
}

// readIntCounts reads the integer form into the receiver's zeroed counts.
func (h *Histogram) readIntCounts(r *binenc.Reader) error {
	bins := len(h.counts)
	nonZero := r.Int()
	var sum uint64
	next := 0
	for k := 0; k < nonZero && r.Err() == nil; k++ {
		gap, c := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			break
		}
		if gap >= uint64(bins-next) {
			return fmt.Errorf("count gap %d past the last bin", gap)
		}
		if c == 0 || c > maxCount {
			return fmt.Errorf("sparse count %d", c)
		}
		next += int(gap)
		h.counts[next] = float64(c)
		next++
		if sum += c; sum > math.MaxInt64 {
			return fmt.Errorf("counts sum past 2^63")
		}
	}
	under, over := r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if under > maxCount || over > maxCount {
		return fmt.Errorf("out-of-range counts %d and %d", under, over)
	}
	sum += under + over
	h.under, h.over, h.total = float64(under), float64(over), float64(sum)
	if uint64(h.total) != sum {
		return fmt.Errorf("counts sum %d is not a float64", sum)
	}
	return nil
}

// readFloatCounts reads the float64 form into the receiver's counts.
func (h *Histogram) readFloatCounts(r *binenc.Reader) error {
	r.F64Col(h.counts)
	h.total = r.F64()
	h.under = r.F64()
	h.over = r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	for i, c := range h.counts {
		if math.IsNaN(c) || c < 0 {
			return fmt.Errorf("invalid count %v in bin %d", c, i)
		}
	}
	for _, v := range []float64{h.total, h.under, h.over} {
		if math.IsNaN(v) || v < 0 {
			return fmt.Errorf("invalid weight %v", v)
		}
	}
	if _, ints := h.intForm(); ints {
		return fmt.Errorf("integer counts in the float64 form")
	}
	return nil
}
