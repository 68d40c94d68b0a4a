package tracegen

import (
	"strconv"

	"repro/internal/workload"
)

// This file is the NDJSON decode hot path: a hand-rolled field scanner that
// turns one machine-generated job-record line into workload.Features with a
// single allocation (the Name string) instead of the ~dozens encoding/json
// spends per line. It is deliberately conservative — it only accepts inputs
// whose decoding it can prove identical to encoding/json (ASCII strings
// without escapes, plain JSON numbers, the known field set) and reports
// "not mine" for everything else, which the Decoder then routes through
// encoding/json itself. The stdlib therefore remains the semantic oracle
// for every unusual line, and FuzzDecoderMatchesEncodingJSON pins the two
// paths together.
//
// Each field is read once. A float literal's digits go straight into an
// exact 19-digit mantissa and a decimal exponent, which convert by the
// Clinger fast path, then Eisel–Lemire (eisellemire.go), and only then
// strconv.ParseFloat on the literal; the result is bit-identical to
// ParseFloat's (see floatField).

// fastDecodeRecord scans one trimmed, non-empty NDJSON record into f.
// ok reports whether the line was within the fast subset; when ok is true
// the outcome (f or err) is definitive and matches what the
// encoding/json-based slow path would have produced. When ok is false the
// caller must re-decode through the slow path.
func fastDecodeRecord(b []byte, f *workload.Features) (ok bool, err error) {
	s := scanner{b: b}
	s.skipSpace()
	if !s.consume('{') {
		return false, nil
	}
	var rec workload.Features
	classSet := false
	s.skipSpace()
	if !s.consume('}') {
		for {
			key, kok := s.simpleString()
			if !kok {
				return false, nil
			}
			s.skipSpace()
			if !s.consume(':') {
				return false, nil
			}
			s.skipSpace()
			if !s.value(string(key), &rec, &classSet) {
				return false, nil
			}
			s.skipSpace()
			if s.consume(',') {
				s.skipSpace()
				continue
			}
			if s.consume('}') {
				break
			}
			return false, nil
		}
	}
	s.skipSpace()
	if !s.eof() {
		return false, nil
	}
	if !classSet {
		// A record without an explicit class errors through the slow path
		// ("unknown class"); a zero-valued Class here would silently mean
		// 1w1g instead.
		return false, nil
	}
	// The slow path validates after decoding; doing the same on identical
	// field values yields the identical error.
	if err := rec.Validate(); err != nil {
		return true, err
	}
	*f = rec
	return true, nil
}

// scanner walks one record without allocating.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) eof() bool { return s.i >= len(s.b) }

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// simpleString scans a double-quoted string containing only printable ASCII
// and no escapes — the alphabet every generated key and value uses. The
// returned slice aliases the input.
func (s *scanner) simpleString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	rest := s.b[s.i:]
	for i, c := range rest {
		if c == '"' {
			s.i += i + 1
			return rest[:i], true
		}
		// Escapes, control characters and non-ASCII bytes leave the proven
		// subset (encoding/json replaces invalid UTF-8, unescapes, etc.).
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
	}
	return nil, false
}

// value dispatches one "key": value pair into f. Unknown keys, mismatched
// value types and exotic encodings all report false (slow path).
func (s *scanner) value(key string, f *workload.Features, classSet *bool) bool {
	switch key {
	case "name":
		if s.null() {
			return true
		}
		v, ok := s.simpleString()
		if !ok {
			return false
		}
		f.Name = string(v)
		return true
	case "class":
		// null would leave the class string empty through encoding/json and
		// fail its unknown-class check, as does any name outside the known
		// set — both belong to the slow path.
		v, ok := s.simpleString()
		if !ok {
			return false
		}
		class, known := classFromName[string(v)]
		if !known {
			return false
		}
		f.Class = class
		*classSet = true
		return true
	case "c_nodes":
		return s.intField(&f.CNodes)
	case "batch_size":
		return s.intField(&f.BatchSize)
	case "flops":
		return s.floatField(&f.FLOPs)
	case "mem_access_bytes":
		return s.floatField(&f.MemAccessBytes)
	case "input_bytes":
		return s.floatField(&f.InputBytes)
	case "dense_weight_bytes":
		return s.floatField(&f.DenseWeightBytes)
	case "embedding_weight_bytes":
		return s.floatField(&f.EmbeddingWeightBytes)
	case "weight_traffic_bytes":
		return s.floatField(&f.WeightTrafficBytes)
	case "arrival_sec":
		return s.floatField(&f.ArrivalSec)
	default:
		return false
	}
}

// null consumes a JSON null, which encoding/json treats as "leave the field
// alone" for every record field.
func (s *scanner) null() bool {
	if s.i+4 <= len(s.b) && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// intField scans a JSON integer literal. Fractions, exponents and overflow
// leave the subset: encoding/json rejects them for Go int fields, so the
// slow path must produce that error.
func (s *scanner) intField(dst *int) bool {
	if s.null() {
		return true
	}
	start := s.i
	neg := s.consume('-')
	digits := s.digits()
	if digits == 0 || !validLeadingZero(s.b[start:s.i], neg) {
		return false
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return false
		}
	}
	// 18 digits always fit in int64; longer literals are so far outside any
	// plausible cNode/batch count that the slow path can own them (it agrees
	// with encoding/json on range errors by construction).
	if digits > 18 {
		return false
	}
	var v int64
	lit := s.b[start:s.i]
	if neg {
		lit = lit[1:]
	}
	for _, c := range lit {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		// Fits int64 but not this platform's int (32-bit builds):
		// encoding/json rejects such records, so the slow path must own
		// them.
		return false
	}
	*dst = int(v)
	return true
}

// digits consumes a run of ASCII digits and returns its length.
func (s *scanner) digits() int {
	rest := s.b[s.i:]
	n := 0
	for n < len(rest) && rest[n]-'0' <= 9 {
		n++
	}
	s.i += n
	return n
}

// validLeadingZero enforces JSON's number grammar: a leading zero may only
// stand alone ("0", "-0"), never prefix more digits.
func validLeadingZero(lit []byte, neg bool) bool {
	d := lit
	if neg {
		d = d[1:]
	}
	return len(d) == 1 || d[0] != '0'
}

// pow10 holds the powers of ten exactly representable in float64; 1e22 is
// the largest. Multiplying or dividing by one of these is a single
// correctly-rounded operation, which is what makes the Clinger fast path
// below exact.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// floatField scans a JSON number into a float64 in one pass over its
// bytes, building the first 19 significant digits into an exact uint64
// mantissa and the decimal exponent as it goes, then converts in the order
// strconv.ParseFloat itself tries:
//
//  1. Clinger: when the mantissa fits in 53 bits and the exponent is within
//     ±22, mantissa × 10^exp is one exact operand times one
//     correctly-rounded multiply or divide.
//  2. Eisel–Lemire on (mantissa, exponent, sign): every 17-digit
//     shortest-round-trip float the generator writes lands here.
//  3. strconv.ParseFloat on the literal, only when a nonzero digit past the
//     19th was dropped or Eisel–Lemire cannot decide (halfway cases,
//     subnormals, overflow, exponents outside its table).
//
// ParseFloat runs the same two fast steps before its own slow path. Each
// step returns the correctly-rounded result or gives up, so the value is
// bit-identical to ParseFloat's — and encoding/json's, which calls it.
// Malformed syntax and ParseFloat's range errors leave the subset.
func (s *scanner) floatField(dst *float64) bool {
	if s.null() {
		return true
	}
	b := s.b[s.i:]
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd := 0        // significant digits held in mant (leading zeros skipped)
	trunc := false // a nonzero digit past the 19th was dropped
	exp10 := 0

	intStart := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if nd < 19 {
			mant = mant*10 + uint64(b[i]-'0')
			if mant > 0 {
				nd++
			}
		} else {
			exp10++
			trunc = trunc || b[i] != '0'
		}
	}
	// JSON allows a leading zero only as the whole integer part.
	if i == intStart || (b[intStart] == '0' && i-intStart > 1) {
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				if mant > 0 {
					nd++
				}
				exp10--
			} else {
				trunc = trunc || b[i] != '0'
			}
		}
		if i == fracStart {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		expStart := i
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // anything larger over/underflows regardless
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			return false
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	lit := b[:i]
	s.i += i

	if !trunc {
		if mant < 1<<53 && exp10 >= -22 && exp10 <= 22 {
			v := float64(mant)
			if exp10 > 0 {
				v *= pow10[exp10]
			} else if exp10 < 0 {
				v /= pow10[-exp10]
			}
			if neg {
				v = -v
			}
			*dst = v
			return true
		}
		if v, ok := eiselLemire(mant, exp10, neg); ok {
			*dst = v
			return true
		}
	}
	// Rare: one small string allocation for strconv's exact slow path.
	// Range errors defer to the slow path, which agrees with encoding/json
	// by construction.
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}
