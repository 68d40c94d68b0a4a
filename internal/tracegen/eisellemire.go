package tracegen

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The decimal exponents the power-of-ten table covers. Outside this range
// every nonzero 19-digit mantissa overflows or underflows float64, which
// the caller leaves to strconv.
const (
	pow10MinExp = -348
	pow10MaxExp = 347
)

// pow10Table returns, for every q in [pow10MinExp, pow10MaxExp], the 128
// most significant bits of 10^q rounded down, as {low, high} 64-bit halves:
// row q is floor(10^q / 2^e) with e chosen so that 2^127 <= row < 2^128.
// These are the rows of strconv's Eisel–Lemire table, computed once with
// math/big on first use instead of listed.
var pow10Table = sync.OnceValue(func() *[pow10MaxExp - pow10MinExp + 1][2]uint64 {
	var t [pow10MaxExp - pow10MinExp + 1][2]uint64
	ten := big.NewInt(10)
	var p, m big.Int
	var buf [16]byte
	for q := pow10MinExp; q <= pow10MaxExp; q++ {
		k := q
		if k < 0 {
			k = -k
		}
		p.Exp(ten, big.NewInt(int64(k)), nil)
		n := p.BitLen()
		switch {
		case q < 0:
			// 10^-k is not a power of two, so 2^(127+n) / 10^k lies strictly
			// between 2^127 and 2^128.
			m.Lsh(big.NewInt(1), uint(127+n))
			m.Quo(&m, &p)
		case n > 128:
			m.Rsh(&p, uint(n-128))
		default:
			m.Lsh(&p, uint(128-n))
		}
		m.FillBytes(buf[:])
		t[q-pow10MinExp] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	return &t
})

// eiselLemire converts mant × 10^exp10 to the nearest float64 (ties to
// even) with the Eisel–Lemire algorithm, the fast path of
// strconv.ParseFloat: multiply the normalized mantissa by the 128-bit
// approximation of 10^exp10 and keep the top 54 bits. mant must hold every
// significant digit of the literal. ok is false when the truncated product
// cannot decide the rounding, and when the result is subnormal, infinite or
// outside the table; strconv's exact slow path owns those.
func eiselLemire(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10MinExp || exp10 > pow10MaxExp {
		return 0, false
	}
	row := &pow10Table()[exp10-pow10MinExp]

	// Normalize the mantissa to a set top bit. 217706/2^16 approximates
	// log2(10), so this is the biased binary exponent of the product's top
	// bit, give or take the one the shift below settles.
	clz := bits.LeadingZeros64(mant)
	mant <<= clz
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The high half of the row alone decides the top 55 bits unless the 9
	// bits below them are all ones and the low product could carry into
	// them; then widen with the low half of the row, and give up if a carry
	// is still possible.
	hi, lo := bits.Mul64(mant, row[1])
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yHi, yLo := bits.Mul64(mant, row[0])
		wHi, wLo := hi, lo+yHi
		if wLo < lo {
			wHi++
		}
		if wHi&0x1FF == 0x1FF && wLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = wHi, wLo
	}

	// Keep 54 bits; the product's top bit is bit 127 or bit 126.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Exactly halfway between two float64s as far as 128 bits can tell:
	// rounding to even would need the bits the row dropped.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round 54 bits to 53, renormalizing if the rounding carried out.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// A biased exponent of 0 (or one that wrapped below it) is subnormal;
	// 0x7FF and above is infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
