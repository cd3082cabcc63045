package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// logUniformDist builds an n-atom distribution whose probabilities are
// log-uniform over the whole float64 range, in random order: every
// exponent band of bandedOperand is populated and pair products land
// in all three product classes, the subnormal band included. gap draws
// the distance between adjacent values.
func logUniformDist(t *testing.T, rng *rand.Rand, n int, gap func() int64) *Dist {
	t.Helper()
	pts := make([]Point, n)
	v := int64(0)
	var mass float64
	for i := range pts {
		pts[i] = Point{Value: v, Prob: math.Ldexp(1+rng.Float64(), -rng.Intn(1075))}
		mass += pts[i].Prob
		v += gap()
	}
	for i := range pts {
		pts[i].Prob /= mass
	}
	d, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConvolveBandOracle pins the dense kernel (plain offsets and a
// shared stride) and the k-way merge, serial and output-partitioned at
// 1, 2, 4 and 8 workers, bitwise to plainConvolve — the plain
// `cell += x*q` loop — on operands whose pair products are subnormal or
// round to zero in bulk. plainConvolve takes the operand whose
// ascending index orders each cell's sum first: the receiver on the
// dense path, the smaller operand on the k-way path.
func TestConvolveBandOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name string
		gap  func() int64
	}{
		{"dense", func() int64 { return 1 + rng.Int63n(4) }},
		{"stride", func() int64 { return 100 * (1 + rng.Int63n(40)) }},
		{"kway", func() int64 { return 1 + rng.Int63n(1<<20) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for iter := 0; iter < 3; iter++ {
				a := logUniformDist(t, rng, 260+rng.Intn(200), tc.gap)
				b := logUniformDist(t, rng, 260+rng.Intn(200), tc.gap)
				n, m := a.Len(), b.Len()
				g := strideGCD(a, b)
				dense := (uint64(a.Max()+b.Max())-uint64(a.Min()+b.Min()))/g < uint64(denseLimit(n*m))
				// Construction checks: the intended path, a product
				// count above the split threshold, and band pairs.
				if want := tc.name != "kway"; dense != want || (g > 1) != (tc.name == "stride") {
					t.Fatalf("corpus bug: dense=%v g=%d on the %s case", dense, g, tc.name)
				}
				if n*m < minSplitPairs {
					t.Fatalf("corpus bug: %d pairs stay under the split threshold", n*m)
				}
				if band := countBandPairs(a, b); band < n*m/50 {
					t.Fatalf("corpus bug: only %d of %d pairs are in the band class", band, n*m)
				}
				want := plainConvolve(a, b)
				if !dense && n > m {
					want = plainConvolve(b, a)
				}
				assertSameAtoms(t, "Convolve", a.Convolve(b), want)
				for _, workers := range []int{1, 2, 4, 8} {
					assertSameAtoms(t, fmt.Sprintf("workers=%d", workers), convolveWorkersSem(a, b, workers, nil), want)
				}
			}
		})
	}
}

// countBandPairs returns how many pairs of a x b take the exact
// integer product.
func countBandPairs(a, b *Dist) int {
	cnt := 0
	for _, x := range a.probs {
		for _, q := range b.probs {
			if classifyPair(expField(x), expField(q)) == pairBand {
				cnt++
			}
		}
	}
	return cnt
}
