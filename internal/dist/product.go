package dist

import (
	"math"
	"math/bits"
)

// The exact pair product of the convolution kernels.
//
// On x86 a float64 multiply whose operand or result is subnormal takes
// a microcode assist costing ~30x a normal multiply, and the deep tail
// of a 256-set penalty convolution is full of such pairs: atoms of
// 1e-180 down to 1e-323 multiplied together. The kernels therefore
// sort every pair (x, q) of positive finite probabilities into one of
// three classes by the biased binary exponent fields ex, eq of its
// operands, and only the first one ever reaches a float64 multiply:
//
//   - pairHardware: ex, eq ≠ 0 and ex+eq ≥ hwExpSum. Both operands are
//     normal and x·q ≥ 2^(e(x)+e(q)) ≥ 2^-1022, so the product is
//     normal too: x*q runs at full speed.
//   - pairZero: ex+eq ≤ zeroExpSum. Every float64 is below 2^(e+1)
//     (a subnormal's field 0 reads as e = -1023, still an upper
//     bound), so x·q < 2^-1075 — under half the smallest subnormal —
//     and x*q rounds to +0. Adding +0 leaves any cell unchanged, so
//     the pair is skipped.
//   - pairBand: everything in between. mulExact rounds the exact
//     integer product of the significands to nearest-even, returning
//     exactly the bits of x*q without a floating-point multiply.
//
// All three return (or skip) the very bits x*q would produce, so a
// kernel using them is bitwise the plain `cell += x*q` loop.
const (
	hwExpSum   = 1024 // e(x)+e(q) ≥ -1022, in biased exponents
	zeroExpSum = 969  // e(x)+e(q)+2 ≤ -1075, in biased exponents
)

// pairClass is the class of one convolution pair product (see above).
type pairClass uint8

const (
	pairHardware pairClass = iota
	pairBand
	pairZero
)

// expField returns the biased binary exponent field of a positive
// float64: 0 for subnormals (and +0), 1..2046 for normals.
func expField(x float64) int { return int(math.Float64bits(x) >> 52) }

// classifyPair returns the class of x*q from the operands' exponent
// fields ex = expField(x) and eq = expField(q). The hardware class is
// monotone in each field once both are nonzero, and the zero class is
// monotone downward, so a whole group of atoms with fields in
// [emin, emax] is hardware when its emin is and zero when its emax is.
func classifyPair(ex, eq int) pairClass {
	switch {
	case ex != 0 && eq != 0 && ex+eq >= hwExpSum:
		return pairHardware
	case ex+eq <= zeroExpSum:
		return pairZero
	}
	return pairBand
}

// absorbed reports whether adding a product of two probabilities whose
// exponent fields sum to exq leaves a cell with exponent field ec
// unchanged. The product is at most 2^(exq-2044) (both operands are
// below 2^(e+1); for exq ≤ zeroExpSum it is +0), and for
// exq ≤ ec+967 that is below half an ulp of the cell, which is at
// least 2^(ec-1076), so the rounded sum is the cell itself. Skipping
// the pair is then exact, and saves the band class its integer
// multiply.
func absorbed(exq, ec int) bool { return exq <= ec+967 }

// mulProb returns the bits of x*q for positive finite x and q without
// a float64 multiply that has a subnormal operand or result.
func mulProb(x, q float64) float64 {
	switch classifyPair(expField(x), expField(q)) {
	case pairHardware:
		return x * q
	case pairZero:
		return 0
	case pairBand:
	}
	return mulExact(x, q)
}

// mulExact returns x*q correctly rounded to nearest-even — the bits the
// hardware multiply produces — for non-negative finite x and q,
// subnormal results and underflow to +0 included, using only integer
// arithmetic.
func mulExact(x, q float64) float64 {
	mx, ex := unpackFloat(x)
	mq, eq := unpackFloat(q)
	hi, lo := bits.Mul64(mx, mq)
	// The exact product is (hi:lo)·2^e. Fold it into 64 bits t with the
	// dropped low bits ORed into bit 0 as a sticky bit: a 106-bit
	// product keeps ≥ 11 bits below the 53 the result can hold, so the
	// sticky bit never reaches the rounding position.
	e := ex + eq
	t := lo
	if hi != 0 {
		k := 64 - bits.LeadingZeros64(hi)
		t = hi<<(64-k) | lo>>k
		if lo<<(64-k) != 0 {
			t |= 1
		}
		e += k
	}
	if t == 0 {
		return 0
	}
	// Drop shift low bits: enough to leave 53 significant bits, and at
	// least enough to land on the subnormal grid 2^-1074.
	shift := 64 - bits.LeadingZeros64(t) - 53
	if s := -1074 - e; s > shift {
		shift = s
	}
	var m uint64
	switch {
	case shift <= 0:
		m = t << -shift
	case shift > 64:
		return 0 // t < 2^64 ≤ half an ulp of the subnormal grid
	default:
		m = t >> shift // 0 when shift == 64
		rem := t - m<<shift
		half := uint64(1) << (shift - 1)
		if rem > half || rem == half && m&1 == 1 {
			m++
		}
	}
	e += shift
	if m == 1<<53 {
		m >>= 1
		e++
	}
	// Now x*q = m·2^e with m < 2^53, and e == -1074 whenever m < 2^52:
	// adding m to (e+1074)<<52 lets a normal's implicit bit carry into
	// the exponent field, and leaves a subnormal's field 0.
	if e+1075 >= 2047 {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(e+1074)<<52 + m)
}

// unpackFloat splits a non-negative finite float64 into an integer
// significand and a binary exponent: x = m·2^e.
func unpackFloat(x float64) (m uint64, e int) {
	b := math.Float64bits(x)
	field := int(b>>52) & 0x7ff
	m = b & (1<<52 - 1)
	if field == 0 {
		return m, -1074
	}
	return m | 1<<52, field - 1075
}
