package dist

import (
	"math"
	"sort"
	"testing"
)

// naiveConvolve is the obviously-correct reference the fast paths are
// pinned against: every pair product into a map, sorted, zero products
// dropped (the documented underflow semantics).
func naiveConvolve(a, b *Dist) *Dist {
	sums := make(map[int64]float64)
	for i, av := range a.values {
		for j, bv := range b.values {
			sums[av+bv] += a.probs[i] * b.probs[j]
		}
	}
	values := make([]int64, 0, len(sums))
	for v := range sums {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	probs := make([]float64, 0, len(values))
	kept := values[:0]
	for _, v := range values {
		if p := sums[v]; p > 0 {
			kept = append(kept, v)
			probs = append(probs, p)
		}
	}
	return fromSorted(kept, probs)
}

// subUnit builds a distribution with the given total mass directly on
// the internal representation — the shape underflow-dropped pair
// products leave behind, which New (unit-mass precondition) cannot
// express.
func subUnit(values []int64, weights []float64, mass float64) *Dist {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	probs := make([]float64, len(weights))
	for i, w := range weights {
		probs[i] = w / sum * mass
	}
	return fromSorted(values, probs)
}

// TestConvolvePathAgreement is the table test pinning the three
// convolution executions — plain dense accumulator, stride-compressed
// dense grid, and wide-span k-way heap merge — to one another and to
// the naive reference, on the boundary shapes where path selection
// switches and on the degenerate inputs the reduction tree feeds them
// (neutral element, one-atom operands, sub-unit masses).
//
// The two dense paths must agree bitwise (the stride grid is the same
// accumulation in the same order on a compressed index); the k-way
// merge accumulates per-sum products in a different order, so it — and
// the naive reference — agree on the exact support and on
// probabilities up to reassociation rounding. Mass is conserved as the
// product of the operand masses on every path.
func TestConvolvePathAgreement(t *testing.T) {
	grid := func(n int, stride, base int64) ([]int64, []float64) {
		vs := make([]int64, n)
		ws := make([]float64, n)
		for i := range vs {
			vs[i] = base + int64(i)*int64(i)*stride
			ws[i] = float64(1+i%3) / 10
		}
		return vs, ws
	}
	mk := func(n int, stride, base int64) *Dist {
		vs, ws := grid(n, stride, base)
		return subUnit(vs, ws, 1)
	}
	cases := []struct {
		name string
		a, b *Dist
	}{
		// Neutral element and one-atom operands: the Shift shortcut.
		{"neutral-left", Degenerate(0), mk(9, 7, 3)},
		{"neutral-right", mk(9, 7, 3), Degenerate(0)},
		{"one-atom-shift", Degenerate(41), mk(12, 13, -5)},
		// Narrow span: plain dense accumulator.
		{"narrow-dense", mk(20, 3, 0), mk(15, 5, 2)},
		// Span just past the stride threshold on a shared coarse grid:
		// the stride-compressed dense path.
		{"stride-grid", mk(40, 100, 0), mk(40, 100, 200)},
		// Boundary: raw span straddling minStrideCells with gcd 1
		// (stride compression unavailable, plain dense must cope).
		{"boundary-gcd1", mk(64, 97, 0), subUnit([]int64{0, 1, 1 << 14}, []float64{1, 1, 1}, 1)},
		// Wide span, no common stride: the k-way heap merge.
		{"wide-kway", mk(24, 1_000_003, 0), mk(24, 999_983, 17)},
		// Sub-unit masses (the shape underflow leaves): mass must come
		// out as the product, not be renormalized away.
		{"sub-unit-narrow", subUnit([]int64{0, 2, 5}, []float64{1, 2, 1}, 0.25), subUnit([]int64{1, 3}, []float64{1, 1}, 0.5)},
		{"sub-unit-wide", subUnit([]int64{0, 1_000_003}, []float64{1, 3}, 0.125), subUnit([]int64{0, 2_000_005}, []float64{2, 1}, 0.75)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := naiveConvolve(tc.a, tc.b)
			got := tc.a.Convolve(tc.b)
			if got.Len() != want.Len() {
				t.Fatalf("support size %d, want %d", got.Len(), want.Len())
			}
			wp := want.Points()
			for i, p := range got.Points() {
				if p.Value != wp[i].Value {
					t.Fatalf("support differs at %d: %d vs %d", i, p.Value, wp[i].Value)
				}
				if diff := math.Abs(p.Prob - wp[i].Prob); diff > 1e-12*wp[i].Prob {
					t.Fatalf("probability at value %d: %g, want %g", p.Value, p.Prob, wp[i].Prob)
				}
			}
			if wantMass := tc.a.Mass() * tc.b.Mass(); math.Abs(got.Mass()-wantMass) > 1e-12 {
				t.Fatalf("mass %g, want the product of operand masses %g", got.Mass(), wantMass)
			}
			if got.Max() != tc.a.Max()+tc.b.Max() {
				t.Fatalf("max %d, want %d", got.Max(), tc.a.Max()+tc.b.Max())
			}

			// Force the k-way merge on the same operands (legal for any
			// multi-atom pair): exact same support, rounding-level probs.
			if tc.a.Len() > 1 && tc.b.Len() > 1 {
				kway := tc.a.convolveKWay(tc.b)
				if kway.Len() != want.Len() {
					t.Fatalf("k-way support size %d, want %d", kway.Len(), want.Len())
				}
				for i, p := range kway.Points() {
					if p.Value != wp[i].Value {
						t.Fatalf("k-way support differs at %d: %d vs %d", i, p.Value, wp[i].Value)
					}
					if diff := math.Abs(p.Prob - wp[i].Prob); diff > 1e-12*wp[i].Prob {
						t.Fatalf("k-way probability at value %d: %g, want %g", p.Value, p.Prob, wp[i].Prob)
					}
				}
			}

			// Workers variant must be byte-identical to the serial result
			// for every path (the PR 4 contract the reduction relies on).
			par := convolveWorkersSem(tc.a, tc.b, 4, nil)
			if par.Len() != got.Len() {
				t.Fatalf("workers=4 support size %d, want %d", par.Len(), got.Len())
			}
			gp := got.Points()
			for i, p := range par.Points() {
				if p != gp[i] {
					t.Fatalf("workers=4 atom %d: %+v, want %+v (must be byte-identical)", i, p, gp[i])
				}
			}
		})
	}
}

// TestConvolveDenseStrideBitIdentical pins the PR 5 claim the path
// selection rests on: on a shared coarse grid the stride-compressed
// accumulator produces bit-for-bit the atoms of the plain dense
// accumulator — same values, same float64 bit patterns — so the
// threshold between them is purely a locality choice and can never
// change a result.
func TestConvolveDenseStrideBitIdentical(t *testing.T) {
	mkGrid := func(n int, stride int64) *Dist {
		vs := make([]int64, n)
		ws := make([]float64, n)
		for i := range vs {
			vs[i] = int64(i) * int64(i+1) / 2 * stride
			ws[i] = 1 / float64(i+2)
		}
		return subUnit(vs, ws, 1)
	}
	for _, stride := range []int64{2, 100, 4096} {
		a, b := mkGrid(30, stride), mkGrid(25, stride)
		n, m := a.Len(), b.Len()
		base := a.Min() + b.Min()
		span := int(a.Max() + b.Max() - base)
		g := strideGCD(a, b)
		if g < 2 {
			t.Fatalf("stride %d: corpus bug: no common stride (gcd %d)", stride, g)
		}
		plain := a.convolveDense(b, base, span+1)
		strided := a.convolveDenseStride(b, base, span/int(g)+1, g)
		if plain.Len() != strided.Len() {
			t.Fatalf("stride %d: support sizes differ: %d vs %d", stride, plain.Len(), strided.Len())
		}
		pp := plain.Points()
		for i, p := range strided.Points() {
			if p != pp[i] {
				t.Fatalf("stride %d: atom %d differs: %+v vs %+v (n=%d m=%d)", stride, i, p, pp[i], n, m)
			}
		}
	}
}
