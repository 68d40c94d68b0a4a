package stats

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/binenc"
)

// ExactSum is an exact, order-free accumulator of float64 values: a small
// superaccumulator in the sense of Neal ("Fast exact summation using small
// and large superaccumulators", arXiv:1505.05571). Every finite float64 is
// an integer multiple of 2^-1074, so the running sum is kept as one wide
// integer in 32-bit digits (chunks) with carries propagated lazily. Adding
// is two integer adds; merging is a chunk-wise add. Nothing is rounded until
// the sum is read, so any split of the inputs, merged in any order, leaves
// the same state and reads the same correctly rounded value.
//
// ±Inf and NaN inputs are tracked apart from the finite sum and read back
// with IEEE semantics (Inf - Inf is NaN). The zero value is an empty sum.
type ExactSum struct {
	// chunk[i] holds the digit of weight 2^(32i-1074). Between
	// normalizations a digit may run outside [0, 2^32); normalize restores
	// the canonical form.
	chunk [exactChunks]int64
	// adds counts the additions since the last normalization.
	adds int32
	// special records ±Inf and NaN inputs.
	special uint8
}

const (
	// exactChunks covers bit positions 0..2045 of a finite float64 mantissa
	// (two chunks per add at most, so index 64 is the highest an add
	// touches) plus headroom for carries out of the largest sums.
	exactChunks = 67
	// exactCarryEvery bounds the additions between carry propagations: an
	// add moves a digit by less than 2^53, so 1,024 of them stay far inside
	// an int64 starting from a normalized digit (< 2^32).
	exactCarryEvery = 1024
	chunkMask       = 1<<32 - 1

	// Flags of ExactSum.special.
	specialPosInf = 1
	specialNegInf = 2
	specialNaN    = 4
)

// Add adds x exactly.
func (s *ExactSum) Add(x float64) {
	b := math.Float64bits(x)
	e := b >> 52 & 0x7ff
	if e-1 >= 0x7fe { // e == 0 (zero, subnormal) or e == 0x7ff (Inf, NaN)
		s.addRare(b)
		return
	}
	// Add x = ±m·2^(e-1075): bit p = e-1 of the sum, counted from
	// 2^-1074, splits m across chunk i (its low 32 bits) and chunk i+1.
	m := b&(1<<52-1) | 1<<52
	p := uint(e - 1)
	i, sh := p>>5&63, p&31
	lo := int64((m << sh) & chunkMask)
	hi := int64(m >> (32 - sh))
	sign := int64(b) >> 63 // 0 or -1
	s.chunk[i] += (lo ^ sign) - sign
	s.chunk[i+1] += (hi ^ sign) - sign
	if s.adds++; s.adds >= exactCarryEvery {
		s.normalize()
	}
}

// addRare adds a zero, subnormal, infinite or NaN value.
func (s *ExactSum) addRare(b uint64) {
	m := b & (1<<52 - 1)
	switch {
	case b>>52&0x7ff == 0: // ±0 adds nothing
		if m == 0 {
			return
		}
		// Subnormal: the smallest normal's scale (chunk 0, no shift), no
		// hidden bit.
		sign := int64(b) >> 63
		lo, hi := int64(m&chunkMask), int64(m>>32)
		s.chunk[0] += (lo ^ sign) - sign
		s.chunk[1] += (hi ^ sign) - sign
		if s.adds++; s.adds >= exactCarryEvery {
			s.normalize()
		}
	case m != 0:
		s.special |= specialNaN
	case b>>63 != 0:
		s.special |= specialNegInf
	default:
		s.special |= specialPosInf
	}
}

// AddProduct adds x·w exactly, splitting the product into its rounded value
// and its error term with a fused multiply-add (TwoProduct). w == 1 takes a
// single add. The split is exact unless the product overflows or falls
// into the subnormal range.
func (s *ExactSum) AddProduct(x, w float64) {
	if w == 1 {
		s.Add(x)
		return
	}
	p := x * w
	s.Add(p)
	if e := math.FMA(x, w, -p); !math.IsNaN(e) {
		s.Add(e)
	}
}

// Merge adds another sum into the receiver exactly. o is not modified.
func (s *ExactSum) Merge(o *ExactSum) {
	if o == nil {
		return
	}
	// A normalized digit plus one that has taken at most exactCarryEvery
	// adds since its last normalization stays inside an int64. A sum with
	// no adds since its last normalization (or none at all) is normalized.
	if s.adds > 0 {
		s.normalize()
	}
	for i, c := range o.chunk {
		s.chunk[i] += c
	}
	s.special |= o.special
	s.normalize()
}

// normalize propagates every carry, leaving the canonical form: digits
// below the most significant non-zero one lie in [0, 2^32), and that one
// carries the sign. A negative sum's sign extension collapses into its
// top digit, so every value has exactly one representation.
func (s *ExactSum) normalize() {
	s.adds = 0
	var carry int64
	for i := 0; i < exactChunks-1; i++ {
		v := s.chunk[i] + carry
		carry = v >> 32
		s.chunk[i] = v & chunkMask
	}
	s.chunk[exactChunks-1] += carry
	for i := exactChunks - 1; i > 0 && s.chunk[i] == -1; i-- {
		s.chunk[i] = 0
		s.chunk[i-1] -= 1 << 32
	}
}

// span returns the half-open range of non-zero digits of a normalized sum
// (0, 0 when the finite sum is zero).
func (s *ExactSum) span() (lo, hi int) {
	hi = exactChunks
	for hi > 0 && s.chunk[hi-1] == 0 {
		hi--
	}
	for lo < hi && s.chunk[lo] == 0 {
		lo++
	}
	return lo, hi
}

// scaled returns the finite sum as an integer V, the sum being V·2^-1074.
func (s *ExactSum) scaled() *big.Int {
	c := *s
	c.normalize()
	lo, hi := c.span()
	v := new(big.Int)
	d := new(big.Int)
	for i := hi - 1; i >= lo; i-- {
		v.Lsh(v, 32)
		v.Add(v, d.SetInt64(c.chunk[i]))
	}
	return v.Lsh(v, uint(32*lo))
}

// specialValue reports the IEEE value of the tracked infinities and NaNs,
// and whether there are any.
func (s *ExactSum) specialValue() (float64, bool) {
	switch {
	case s.special == 0:
		return 0, false
	case s.special&specialNaN != 0, s.special&(specialPosInf|specialNegInf) == specialPosInf|specialNegInf:
		return math.NaN(), true
	case s.special&specialPosInf != 0:
		return math.Inf(1), true
	default:
		return math.Inf(-1), true
	}
}

// Float64 returns the sum correctly rounded to float64 (to nearest, ties to
// even; ±Inf past the float64 range).
func (s *ExactSum) Float64() float64 {
	if v, ok := s.specialValue(); ok {
		return v
	}
	f := new(big.Float).SetInt(s.scaled())
	v, _ := f.SetMantExp(f, -1074).Float64()
	return v
}

// Quo returns the sum divided by d, correctly rounded to float64 in the
// normal range: the quotient of the exact sum is rounded once.
func (s *ExactSum) Quo(d float64) float64 {
	if v, ok := s.specialValue(); ok {
		return v / d
	}
	if d == 0 || math.IsInf(d, 0) || math.IsNaN(d) {
		return s.Float64() / d
	}
	num := new(big.Float).SetInt(s.scaled())
	num.SetMantExp(num, -1074)
	q, _ := new(big.Float).SetPrec(53).Quo(num, big.NewFloat(d)).Float64()
	return q
}

// Sign returns -1, 0 or +1 by the sign of the finite sum (ignoring any
// infinities and NaNs added).
func (s *ExactSum) Sign() int {
	c := s
	if s.adds > 0 {
		n := *s
		n.normalize()
		c = &n
	}
	_, hi := c.span()
	switch {
	case hi == 0:
		return 0
	case c.chunk[hi-1] < 0:
		return -1
	default:
		return 1
	}
}

// IsZero reports whether nothing but zeros has been added.
func (s *ExactSum) IsZero() bool { return s.special == 0 && s.Sign() == 0 }

// AppendBinary writes the sum's canonical state compactly: the special
// flags, the first non-zero digit's index and the digit count, then each
// digit of that span as a signed varint. Equal sums always write equal
// bytes.
func (s *ExactSum) AppendBinary(w *binenc.Writer) {
	c := s
	if s.adds > 0 {
		n := *s
		n.normalize()
		c = &n
	}
	lo, hi := c.span()
	w.U8(c.special)
	w.Uvarint(uint64(lo))
	w.Uvarint(uint64(hi - lo))
	for _, d := range c.chunk[lo:hi] {
		w.Varint(d)
	}
}

// ReadBinary reads an AppendBinary encoding, replacing the receiver. A span
// that is out of range or not in canonical form is rejected, so a decoded
// sum always re-encodes to the bytes it came from.
func (s *ExactSum) ReadBinary(r *binenc.Reader) error {
	special := r.U8()
	lo := r.Uvarint()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if special&^(specialPosInf|specialNegInf|specialNaN) != 0 || lo > exactChunks || n > exactChunks-lo {
		return fmt.Errorf("stats: exact sum with flags %#x and digits [%d, +%d)", special, lo, n)
	}
	var out ExactSum
	out.special = special
	for i := int(lo); i < int(lo+n); i++ {
		out.chunk[i] = r.Varint()
	}
	if err := r.Err(); err != nil {
		return err
	}
	canon := out
	canon.normalize()
	if canon.chunk != out.chunk {
		return fmt.Errorf("stats: exact sum digits are not carry-normalized")
	}
	if clo, chi := out.span(); clo != int(lo) || chi != int(lo+n) {
		return fmt.Errorf("stats: exact sum span [%d, %d) has zero end digits", lo, lo+n)
	}
	*s = out
	return nil
}
