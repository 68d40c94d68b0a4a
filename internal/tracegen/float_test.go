package tracegen

import (
	"bytes"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// randomLiteral returns a JSON number: a random sign, a 1–19 digit mantissa
// (now and then 20–24 digits, past what the scanner keeps) with the decimal
// point at a random position, and usually an exponent drawn from beyond
// both ends of the power-of-ten table.
func randomLiteral(rng *rand.Rand) string {
	n := 1 + rng.Intn(19)
	if rng.Intn(16) == 0 {
		n = 20 + rng.Intn(5)
	}
	d := make([]byte, n)
	for i := range d {
		d[i] = byte('0' + rng.Intn(10))
	}
	if rng.Intn(8) != 0 {
		d[0] = byte('1' + rng.Intn(9)) // mostly full-length significands
	}
	var sb strings.Builder
	if rng.Intn(2) == 0 {
		sb.WriteByte('-')
	}
	switch p := rng.Intn(n + 1); {
	case p == 0 || (d[0] == '0' && n > 1):
		// JSON allows a leading zero only as the whole integer part.
		sb.WriteString("0.")
		sb.WriteString(strings.Repeat("0", rng.Intn(4)))
		sb.Write(d)
	case p == n:
		sb.Write(d)
	default:
		sb.Write(d[:p])
		sb.WriteByte('.')
		sb.Write(d[p:])
	}
	if rng.Intn(8) != 0 {
		sb.WriteByte("eE"[rng.Intn(2)])
		e := rng.Intn(2*420+1) - 420
		if e >= 0 && rng.Intn(2) == 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(strconv.Itoa(e))
	}
	return sb.String()
}

// TestFloatFieldMatchesStrconv is the deterministic differential check of
// the scanner's float conversion: on every literal, floatField and
// strconv.ParseFloat agree bit for bit, and floatField leaves the subset
// exactly when ParseFloat reports a range error.
func TestFloatFieldMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(20190908))
	fixed := []string{
		"0", "-0", "-0.0", "-0e5", "0e-400", "-0e400",
		"9007199254740993", "9007199254740992", "9007199254740994.0",
		"2.2250738585072011e-308", "2.2250738585072014e-308",
		"1e23", "0.30000000000000004", "4.9e-324", "2.4703282292062327e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e309",
		"1e-348", "1e347", "1e-349", "1e348", "12345678901234567890e-20",
		"123456789012345678901234567890", "0.000000000000000000000000001",
		"454219283049.40295", "1.0000000000000002", "8.64e4",
	}
	const random = 100000
	for i := 0; i < len(fixed)+random; i++ {
		var lit string
		if i < len(fixed) {
			lit = fixed[i]
		} else {
			lit = randomLiteral(rng)
		}
		want, werr := strconv.ParseFloat(lit, 64)
		if werr != nil && !errors.Is(werr, strconv.ErrRange) {
			t.Fatalf("%q: test generated an invalid literal: %v", lit, werr)
		}
		s := scanner{b: []byte(lit)}
		var got float64
		ok := s.floatField(&got)
		if ok != (werr == nil) {
			t.Fatalf("%q: ok=%v, ParseFloat err=%v", lit, ok, werr)
		}
		if !ok {
			continue
		}
		if s.i != len(lit) {
			t.Fatalf("%q: scanned %d of %d bytes", lit, s.i, len(lit))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: got %v (%#x), ParseFloat %v (%#x)",
				lit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestPow10TableRows checks every generated row against math/big
// independently of how the table is built: row q is 10^q scaled by 2^-e
// and rounded down, where e = floor(q·217706/2^16) - 127 is the exponent
// eiselLemire assumes, and the row is a full 128-bit value.
func TestPow10TableRows(t *testing.T) {
	tab := pow10Table()
	lower := new(big.Int).Lsh(big.NewInt(1), 127)
	upper := new(big.Int).Lsh(big.NewInt(1), 128)
	ten := big.NewInt(10)
	for q := pow10MinExp; q <= pow10MaxExp; q++ {
		r := tab[q-pow10MinExp]
		row := new(big.Int).Lsh(new(big.Int).SetUint64(r[1]), 64)
		row.Or(row, new(big.Int).SetUint64(r[0]))
		if row.Cmp(lower) < 0 || row.Cmp(upper) >= 0 {
			t.Fatalf("1e%d: row %#x outside [2^127, 2^128)", q, row)
		}
		// Compare 10^q with row·2^e and (row+1)·2^e as integers by moving
		// negative powers of 10 and 2 to the other side.
		e := (217706*q)>>16 - 127
		pow := new(big.Int).Exp(ten, big.NewInt(int64(abs(q))), nil)
		lhs, lo, hi := big.NewInt(1), new(big.Int).Set(row), new(big.Int).Add(row, big.NewInt(1))
		if q >= 0 {
			lhs.Set(pow)
		} else {
			lo.Mul(lo, pow)
			hi.Mul(hi, pow)
		}
		if e >= 0 {
			lo.Lsh(lo, uint(e))
			hi.Lsh(hi, uint(e))
		} else {
			lhs.Lsh(lhs, uint(-e))
		}
		if lo.Cmp(lhs) > 0 || hi.Cmp(lhs) <= 0 {
			t.Fatalf("1e%d: row %#x is not 10^%d·2^%d rounded down", q, row, q, -e)
		}
	}
	// The worked example in strconv's table.
	if got := tab[43-pow10MinExp]; got != [2]uint64{0x6D9CCD05D0000000, 0xE596B7B0C643C719} {
		t.Fatalf("1e43 row = %#x_%x", got[1], got[0])
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestFastDecodeAllocs pins the hot path's one allocation per record (the
// Name string) on a generated record whose floats carry 17 significant
// digits, so none of them may build a string for strconv.
func TestFastDecodeAllocs(t *testing.T) {
	p := Default()
	p.NumJobs = 200
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var line []byte
	for _, l := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		if seventeenDigitFloats(l) >= 3 {
			line = l
			break
		}
	}
	if line == nil {
		t.Fatal("no generated record carries 17-digit floats")
	}
	var f workload.Features
	allocs := testing.AllocsPerRun(100, func() {
		if ok, err := fastDecodeRecord(line, &f); !ok || err != nil {
			t.Fatalf("left the fast path (ok=%v err=%v): %s", ok, err, line)
		}
	})
	if allocs != 1 {
		t.Fatalf("fastDecodeRecord allocates %v times per record, want 1: %s", allocs, line)
	}
}

// seventeenDigitFloats counts the number values in an NDJSON record with
// 17 significant digits.
func seventeenDigitFloats(line []byte) int {
	n := 0
	for _, field := range bytes.Split(line, []byte(",")) {
		_, v, ok := bytes.Cut(field, []byte(":"))
		if !ok || len(v) == 0 || v[0] == '"' {
			continue
		}
		mant, _, _ := bytes.Cut(bytes.TrimRight(v, "}"), []byte("e"))
		digits := bytes.TrimLeft(bytes.ReplaceAll(mant, []byte("."), nil), "-0")
		if len(digits) == 17 {
			n++
		}
	}
	return n
}
