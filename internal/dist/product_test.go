package dist

import (
	"math"
	"math/rand"
	"testing"
)

// assertMulExact fails unless mulExact(x, q) has exactly the bits of
// the hardware product x*q.
func assertMulExact(t *testing.T, x, q float64) {
	t.Helper()
	got, want := mulExact(x, q), x*q
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("mulExact(%b, %b) = %b (%#x), want %b (%#x)",
			x, q, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// productSeeds are the boundary operand pairs of the exact product:
// exponent sums across the whole band class and both of its edges,
// exact midpoints of the subnormal grid (ties to even both ways),
// products rounding up to 2^-1022, and the smallest subnormal.
func productSeeds() [][2]float64 {
	tiny := math.SmallestNonzeroFloat64 // 2^-1074
	minNormal := 0x1p-1022
	seeds := [][2]float64{
		{tiny, 1}, {1, tiny}, {tiny, tiny}, {tiny, 0.5}, {tiny, 0.75},
		{tiny, 1.5}, {tiny, 2.5}, {tiny, 0x1.fffffffffffffp-1},
		// Midpoints of the subnormal grid: k·2^-1074 + 2^-1075.
		{3 * tiny, 0.5}, {5 * tiny, 0.5}, {0x1p-1000, 0x1.8p-75}, {0x1p-1000, 0x1.4p-74},
		// Just below 2^-1022: rounds up to the smallest normal, or not.
		{0x1.fffffffffffffp-1, minNormal}, {0x1.fffffffffffffp-512, 0x1.fffffffffffffp-511},
		{0x1.ffffffffffffep-1, minNormal}, {minNormal, 1}, {minNormal, 0x1.0000000000001p0},
		{math.Float64frombits(1<<52 - 1), 1}, {math.Float64frombits(1<<52 - 1), 0x1.0000000000001p0},
		// Zero-boundary: products around 2^-1075.
		{0x1p-538, 0x1p-537}, {0x1.0000000000001p-538, 0x1p-537}, {0x1.8p-538, 0x1.8p-538},
		{0, 0.5}, {0.5, 0},
		// Overflow to +Inf and large normals.
		{math.MaxFloat64, 2}, {0x1p1000, 0x1p23}, {1e300, 1e8},
	}
	for s := -1020; s >= -1080; s-- {
		a := s / 2
		seeds = append(seeds,
			[2]float64{math.Ldexp(1, a), math.Ldexp(1, s-a)},
			[2]float64{math.Ldexp(0x1.fffffffffffffp0, a), math.Ldexp(0x1.fffffffffffffp0, s-a)},
			[2]float64{math.Ldexp(0x1.5555555555555p0, a), math.Ldexp(0x1.3333333333333p0, s-a)},
			[2]float64{math.Ldexp(0x1.8p0, a), math.Ldexp(0x1.0000000000001p0, s-a)},
		)
	}
	return seeds
}

// TestMulExactTable pins the exact product against the hardware
// multiply on the boundary seeds and on random operands drawn across
// the band class and into the subnormal range.
func TestMulExactTable(t *testing.T) {
	for _, s := range productSeeds() {
		assertMulExact(t, s[0], s[1])
		assertMulExact(t, s[1], s[0])
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200_000; i++ {
		x := math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(1100))<<52)
		// Aim q so the exponent sum lands in or near the band class.
		eq := 970 + rng.Intn(60) - expField(x)
		if eq < 0 {
			eq = 0
		}
		q := math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(eq)<<52)
		assertMulExact(t, x, q)
	}
}

// FuzzMulExact: for any two positive finite float64s, the exact
// product has the bits of x*q.
func FuzzMulExact(f *testing.F) {
	for _, s := range productSeeds() {
		f.Add(math.Float64bits(s[0]), math.Float64bits(s[1]))
	}
	f.Fuzz(func(t *testing.T, xb, qb uint64) {
		x := math.Float64frombits(xb &^ (1 << 63))
		q := math.Float64frombits(qb &^ (1 << 63))
		if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(q, 0) || math.IsNaN(q) {
			return
		}
		assertMulExact(t, x, q)
	})
}

// TestClassifyPairProperty: the hardware class never gets a subnormal
// operand or a product below 2^-1022 (so its float64 multiply never
// takes an assist), the zero class only skips pairs whose x*q is +0,
// a product absorbed by a cell leaves it bitwise unchanged, and mulProb
// matches x*q bit for bit in every class.
func TestClassifyPairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	seen := map[pairClass]int{}
	absorbedSeen := 0
	check := func(x, q float64) {
		c := classifyPair(expField(x), expField(q))
		seen[c]++
		switch c {
		case pairHardware:
			if x < 0x1p-1022 || q < 0x1p-1022 {
				t.Fatalf("hardware pair (%b, %b) has a subnormal operand", x, q)
			}
			if x*q < 0x1p-1022 {
				t.Fatalf("hardware pair (%b, %b) has subnormal product %b", x, q, x*q)
			}
		case pairZero:
			if p := x * q; math.Float64bits(p) != 0 {
				t.Fatalf("zero pair (%b, %b) has product %b, not +0", x, q, p)
			}
		case pairBand:
		}
		if got, want := mulProb(x, q), x*q; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mulProb(%b, %b) = %b, want %b", x, q, got, want)
		}
		// A cell a few binades either side of the absorption cut.
		cell := math.Ldexp(1+rng.Float64(), expField(x)+expField(q)-1990+rng.Intn(24)-12)
		if absorbed(expField(x)+expField(q), expField(cell)) {
			absorbedSeen++
			if sum := cell + x*q; math.Float64bits(sum) != math.Float64bits(cell) {
				t.Fatalf("absorbed pair (%b, %b) changes cell %b to %b", x, q, cell, sum)
			}
		}
	}
	for _, s := range productSeeds() {
		if s[0] <= 1 && s[1] <= 1 && s[0] > 0 && s[1] > 0 {
			check(s[0], s[1])
		}
	}
	for i := 0; i < 200_000; i++ {
		// Probabilities: fields 0..1022 (x ≤ 1), full random significands.
		x := math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(1023))<<52)
		q := math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(1023))<<52)
		if x == 0 || q == 0 {
			continue
		}
		check(x, q)
	}
	for _, c := range []pairClass{pairHardware, pairBand, pairZero} {
		if seen[c] == 0 {
			t.Errorf("class %d never exercised", c)
		}
	}
	if absorbedSeen == 0 {
		t.Error("absorption never exercised")
	}
}
