// Package binenc provides the little byte-level toolkit behind every sink
// snapshot: an append-only Writer and a sticky-error Reader over a byte
// slice. Snapshots must be deterministic (byte-identical for identical
// state), versioned, and safe to decode from untrusted bytes, so the codec
// is deliberately primitive — fixed-width little-endian scalars, uvarint
// lengths, and length-prefixed strings, with every read bounds-checked
// against the remaining input.
//
// The Reader never panics and never allocates more than the input could
// possibly describe: a corrupted length field fails the decode instead of
// requesting gigabytes. Decoders check Err once at the end rather than after
// every field, which keeps the per-type Unmarshal code linear and legible.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates a deterministic binary encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with some initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer for reuse, keeping the allocated buffer — block
// encoders (internal/colbin) re-fill one writer per block instead of
// retiring a fresh buffer each time.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a fixed-width little-endian uint32 — the width network frame
// headers use, where a varint's data-dependent size would make the header
// unseekable.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends a varint-encoded count.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a non-negative count as a uvarint.
func (w *Writer) Int(v int) { w.Uvarint(uint64(v)) }

// Varint appends a signed integer as a zig-zag varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// F64 appends the IEEE-754 bits of a float64, preserving the value exactly
// (including NaNs, infinities and signed zeros).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s appends a uvarint length followed by every element's bits.
func (w *Writer) F64s(vs []float64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.F64(v)
	}
}

// F64Col appends every element's bits with no length prefix — the bulk
// column encode paired with Reader.F64Col; the count travels separately in
// the block header.
func (w *Writer) F64Col(vs []float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

// Str appends a uvarint length followed by the string bytes.
func (w *Writer) Str(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Raw appends a uvarint length followed by the raw bytes.
func (w *Writer) Raw(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Reader decodes a Writer's encoding with a sticky error: after the first
// malformed field every subsequent read returns zero values, and Err reports
// what went wrong. This lets Unmarshal code read a whole record linearly and
// validate once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over the given encoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("binenc: "+format+" at offset %d", append(a, r.off)...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uvarint reads a varint-encoded count. Writer emits the shortest
// encoding only, and a longer one (a trailing zero byte) fails, so every
// value has one spelling and a decoded snapshot re-encodes to its input.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v := r.buf[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || !r.shortest(n) {
		r.fail("malformed uvarint")
		return 0
	}
	r.off += n
	return v
}

// shortest reports whether the n-byte varint at the offset is the shortest
// encoding of its value: only a one-byte varint may end in a zero byte.
func (r *Reader) shortest(n int) bool { return n == 1 || r.buf[r.off+n-1] != 0 }

// Varint reads a zig-zag varint-encoded signed integer, in its shortest
// encoding like Uvarint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || !r.shortest(n) {
		r.fail("malformed varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint count and rejects values that could not possibly be
// backed by the remaining input (each counted element takes at least one
// byte), so corrupted lengths fail instead of driving huge allocations.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Len()) {
		r.fail("length %d exceeds %d remaining bytes", v, r.Len())
		return 0
	}
	return int(v)
}

// Scalar reads a non-negative uvarint that counts nothing in the input — an
// index, an attempt number, a total. Unlike Int it is not bounded by the
// remaining bytes, only by int's range.
func (r *Reader) Scalar() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > math.MaxInt {
		r.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s reads a length-prefixed float64 slice. A corrupted length fails
// (elements are 8 bytes each, so the count is checked against Len()/8).
func (r *Reader) F64s() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()/8) {
		r.fail("float64 count %d exceeds %d remaining bytes", n, r.Len())
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// F64Col reads exactly len(out) float64 values with no length prefix — the
// bulk column decode: the caller already knows the record count from the
// block header, so the column is a bare run of IEEE-754 bits. The whole run
// is bounds-checked once, then decoded with raw offset math.
func (r *Reader) F64Col(out []float64) {
	if r.err != nil {
		return
	}
	n := len(out)
	if 8*n > r.Len() {
		r.fail("float64 column of %d values exceeds %d remaining bytes", n, r.Len())
		return
	}
	b := r.buf[r.off:]
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	r.off += 8 * n
}

// UvarintCol reads exactly len(out) uvarints with no length prefix — the
// bulk column decode: the caller already knows the count from its own
// header. The common single-byte encoding is read with one compare; the
// sticky error is checked once up front instead of per value.
func (r *Reader) UvarintCol(out []uint64) {
	if r.err != nil {
		return
	}
	b := r.buf
	off := r.off
	for i := range out {
		if off < len(b) && b[off] < 0x80 {
			out[i] = uint64(b[off])
			off++
			continue
		}
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			r.off = off
			r.fail("malformed uvarint")
			return
		}
		out[i] = v
		off += n
	}
	r.off = off
}

// U8Col returns the next n bytes as a subslice of the input (no copy, no
// length prefix) — valid only while the input buffer is; callers that keep
// the bytes must copy them out.
func (r *Reader) U8Col(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.fail("byte column of %d values exceeds %d remaining bytes", n, r.Len())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Int()
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated string of %d bytes", n)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Raw reads a length-prefixed byte slice (copied out of the input).
func (r *Reader) Raw() []byte {
	b := r.View()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// View is Raw without the copy: the slice aliases the input, so it is for
// nested payloads the caller decodes before the input is reused. Snapshot
// decoders read nested sink and sketch payloads this way.
func (r *Reader) View() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated raw field of %d bytes", n)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}
