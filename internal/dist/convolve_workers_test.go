package dist

import (
	"math/rand"
	"testing"
)

// assertSameAtoms fails unless both distributions hold bitwise
// identical atoms.
func assertSameAtoms(t *testing.T, label string, got, want *Dist) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: support size %d, want %d", label, got.Len(), want.Len())
	}
	wp := want.Points()
	for i, p := range got.Points() {
		if p != wp[i] {
			t.Fatalf("%s: atom %d is %+v, want %+v (must be byte-identical)", label, i, p, wp[i])
		}
	}
}

// bigRandomDist builds a distribution large enough to clear the
// minSplitPairs threshold when convolved, on either the dense or the
// wide-span path depending on the value stride.
func bigRandomDist(t *testing.T, rng *rand.Rand, atoms int, stride int64) *Dist {
	t.Helper()
	pts := make([]Point, atoms)
	v := int64(0)
	for i := range pts {
		v += 1 + int64(rng.Intn(8))*stride
		pts[i] = Point{Value: v, Prob: rng.Float64() + 1e-9}
	}
	var mass float64
	for _, p := range pts {
		mass += p.Prob
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

// TestConvolveWorkersByteIdentical: the output-range-partitioned
// convolution must match the serial Convolve atom for atom, on both
// the dense path (narrow stride) and the k-way wide-span path (huge
// stride), for several worker counts. This is the property
// ConvolveAll's worker independence rests on.
func TestConvolveWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		name   string
		stride int64
	}{
		{"dense", 1},
		{"wide-span", 1 << 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for iter := 0; iter < 4; iter++ {
				a := bigRandomDist(t, rng, 300+rng.Intn(200), tc.stride)
				b := bigRandomDist(t, rng, 300+rng.Intn(200), tc.stride)
				want := a.Convolve(b)
				for _, workers := range []int{2, 3, 8} {
					assertSameAtoms(t, tc.name, convolveWorkersSem(a, b, workers, nil), want)
				}
			}
		})
	}
}

// TestConvolveWorkersSmallFallsThrough: under the split threshold the
// parallel entry point must be the serial convolution (trivially
// byte-identical).
func TestConvolveWorkersSmallFallsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomDist(t, rng, 12)
	b := randomDist(t, rng, 12)
	assertSameAtoms(t, "small", convolveWorkersSem(a, b, 8, nil), a.Convolve(b))
}

// TestBuildMergePlanEqualSizes: with equal-size inputs the size-aware
// schedule must degenerate to the balanced pairwise tree — (0,1),
// (2,3), ... then the products in creation order — which is what keeps
// pipeline results identical to the level-synchronized reduction this
// replaced.
func TestBuildMergePlanEqualSizes(t *testing.T) {
	ds := make([]*Dist, 8)
	for i := range ds {
		d, err := New([]Point{{Value: int64(i), Prob: 0.5}, {Value: int64(i) + 100, Prob: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	plan := buildMergePlan(ds, 4096)
	want := []mergeStep{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}}
	if len(plan) != len(want) {
		t.Fatalf("plan has %d steps, want %d", len(plan), len(want))
	}
	for i, st := range plan {
		if st != want[i] {
			t.Fatalf("plan step %d is %+v, want %+v", i, st, want[i])
		}
	}
}

// TestBuildMergePlanSkewedSizes: small operands must pair with each
// other before touching a capped large partial, Huffman-style.
func TestBuildMergePlanSkewedSizes(t *testing.T) {
	mk := func(atoms int) *Dist {
		pts := make([]Point, atoms)
		for i := range pts {
			pts[i] = Point{Value: int64(i), Prob: 1 / float64(atoms)}
		}
		d, err := New(pts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// One big distribution and three tiny ones: the tiny ones must
	// merge together first; the big one joins last.
	ds := []*Dist{mk(4096), mk(2), mk(2), mk(2)}
	plan := buildMergePlan(ds, 4096)
	if plan[0] != (mergeStep{1, 2}) {
		t.Fatalf("first step %+v, want the two smallest {1 2}", plan[0])
	}
	if plan[1] != (mergeStep{3, 4}) {
		t.Fatalf("second step %+v, want tiny with tiny-product {3 4}", plan[1])
	}
	if plan[2] != (mergeStep{5, 0}) {
		t.Fatalf("last step %+v, want the big operand joining last {5 0}", plan[2])
	}
}

// FuzzConvolveWorkers feeds arbitrary operand pairs to the
// range-partitioned convolution and checks byte-identity against the
// serial path with the split threshold out of the way.
func FuzzConvolveWorkers(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), false)
	f.Add([]byte{200, 1, 200, 2, 200, 3, 200, 4}, uint8(7), true)
	f.Fuzz(func(t *testing.T, data []byte, workers8 uint8, wide bool) {
		workers := 2 + int(workers8%7)
		stride := int64(1)
		if wide {
			stride = 1 << 45
		}
		var pts []Point
		v := int64(0)
		for len(data) >= 2 {
			v += (1 + int64(data[0])%17) * stride
			pts = append(pts, Point{Value: v, Prob: float64(1+int(data[1])%9) / 16})
			data = data[2:]
		}
		if len(pts) < 4 {
			return
		}
		half := len(pts) / 2
		norm := func(ps []Point) *Dist {
			var mass float64
			for _, p := range ps {
				mass += p.Prob
			}
			out := make([]Point, len(ps))
			for i, p := range ps {
				out[i] = Point{Value: p.Value, Prob: p.Prob / mass}
			}
			d, err := New(out)
			if err != nil {
				t.Skip()
			}
			return d
		}
		a, b := norm(pts[:half]), norm(pts[half:])
		want := a.Convolve(b)
		// Exercise the split paths directly, bypassing the size
		// threshold (convolveDensePar / convolveKWayPar are what the
		// fuzzer must break).
		n, m := a.Len(), b.Len()
		base := a.Min() + b.Min()
		diff := uint64(a.Max()+b.Max()) - uint64(base)
		var got *Dist
		if diff < uint64(denseLimit(n*m)) {
			got = a.convolveDensePar(b, base, int(diff)+1, workers, nil)
		} else if diff < 1<<62 && a.Max()+b.Max() != int64(^uint64(0)>>1) {
			got = a.convolveKWayPar(b, base, int64(diff), workers, nil)
		} else {
			return
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: support %d, want %d", workers, got.Len(), want.Len())
		}
		wp := want.Points()
		for i, p := range got.Points() {
			if p != wp[i] {
				t.Fatalf("workers=%d: atom %d is %+v, want %+v", workers, i, p, wp[i])
			}
		}
	})
}
