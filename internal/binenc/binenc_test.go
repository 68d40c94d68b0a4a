package binenc

import (
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.U64(1 << 63)
	w.Uvarint(300)
	w.Int(42)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64s([]float64{1, 2.5, -0})
	w.Str("hello")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U64(); got != 1<<63 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	fs := r.F64s()
	if len(fs) != 3 || fs[0] != 1 || fs[1] != 2.5 {
		t.Errorf("F64s = %v", fs)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	raw := r.Raw()
	if len(raw) != 3 || raw[2] != 3 {
		t.Errorf("Raw = %v", raw)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("trailing bytes: %d", r.Len())
	}
}

func TestF64PreservesBits(t *testing.T) {
	// NaN payloads and signed zero must survive the round trip bit-exactly.
	for _, v := range []float64{math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64} {
		w := NewWriter(8)
		w.F64(v)
		r := NewReader(w.Bytes())
		got := r.F64()
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("bits of %v changed: %x vs %x", v, math.Float64bits(got), math.Float64bits(v))
		}
	}
}

func TestTruncationAndCorruption(t *testing.T) {
	w := NewWriter(16)
	w.Str("some payload")
	b := w.Bytes()

	// Every truncation must produce an error, never a panic.
	for i := 0; i < len(b); i++ {
		r := NewReader(b[:i])
		r.Str()
		if r.Err() == nil && i < len(b) {
			t.Errorf("truncation at %d not detected", i)
		}
	}

	// A length far beyond the buffer must fail, not allocate.
	huge := NewWriter(16)
	huge.Uvarint(1 << 40)
	r := NewReader(huge.Bytes())
	if r.F64s(); r.Err() == nil {
		t.Error("oversized F64s length not detected")
	}
	r2 := NewReader(huge.Bytes())
	if r2.Int(); r2.Err() == nil {
		t.Error("oversized Int not detected")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.U64() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	r.F64()
	r.Str()
	if r.Err() != first {
		t.Error("error not sticky")
	}
}

func TestU32RoundTripAndTruncation(t *testing.T) {
	w := NewWriter(8)
	w.U32(0)
	w.U32(1<<32 - 1)
	r := NewReader(w.Bytes())
	if got := r.U32(); got != 0 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U32(); got != 1<<32-1 {
		t.Errorf("U32 = %d", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	short := NewReader(w.Bytes()[:3])
	if got := short.U32(); got != 0 {
		t.Errorf("truncated U32 = %d", got)
	}
	if short.Err() == nil {
		t.Error("truncated U32 did not error")
	}
}

func TestScalarUnboundedByInput(t *testing.T) {
	w := NewWriter(16)
	w.Int(1 << 40) // a scalar, written the way Int writes counts
	r := NewReader(w.Bytes())
	if got := r.Scalar(); got != 1<<40 || r.Err() != nil {
		t.Errorf("Scalar = %d, %v; want 1<<40 with nothing after it", got, r.Err())
	}
	w = NewWriter(16)
	w.Uvarint(math.MaxUint64)
	r = NewReader(w.Bytes())
	if got := r.Scalar(); got != 0 || r.Err() == nil {
		t.Errorf("overflowing Scalar = %d, %v; want an error", got, r.Err())
	}
}
