package dist

// Perf baselines for the convolution hot path and coarsening, at the
// support sizes the analysis actually folds (the accumulator is capped
// at core.DefaultMaxSupport = 4096; 1k and 10k bracket it). The
// "xSet" benchmarks convolve a large accumulator with a 5-atom per-set
// distribution — the shape of one cache set's step in a sequential
// per-set fold — while "xSelf" measures the quadratic worst case.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchDist builds an n-atom accumulator-like distribution: values on
// the miss-penalty grid, mass geometrically concentrated at the
// bottom like a convolved fault distribution.
func benchDist(n int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	w := make([]float64, n)
	var sum float64
	decay := 1.0
	for i := range w {
		w[i] = decay * (rng.Float64() + 0.01)
		decay *= 0.995
		sum += w[i]
	}
	v := int64(0)
	for i := range pts {
		pts[i] = Point{Value: v, Prob: w[i] / sum}
		v += 100 * int64(1+rng.Intn(3))
	}
	d, err := New(pts)
	if err != nil {
		panic(err)
	}
	return d
}

// benchSetDist is a 5-atom per-set penalty distribution (4-way cache:
// f = 0..4 faulty ways) with the paper's skew.
func benchSetDist() *Dist {
	d, err := New([]Point{
		{0, 0.95}, {800, 0.04}, {2100, 0.009}, {3600, 0.0009}, {5200, 0.0001},
	})
	if err != nil {
		panic(err)
	}
	return d
}

func benchmarkConvolveSet(b *testing.B, n int) {
	acc := benchDist(n, 11)
	set := benchSetDist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = acc.Convolve(set)
	}
}

func BenchmarkConvolve1kxSet(b *testing.B)  { benchmarkConvolveSet(b, 1_000) }
func BenchmarkConvolve10kxSet(b *testing.B) { benchmarkConvolveSet(b, 10_000) }

func BenchmarkConvolve1kxSelf(b *testing.B) {
	d := benchDist(1_000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Convolve(d)
	}
}

// benchWideDist builds an n-atom distribution whose values spread far
// beyond maxDenseSpan, forcing Convolve onto the wide-span k-way-merge
// path (the shape of the high levels of ConvolveAllWith's reduction tree).
func benchWideDist(n int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	v := int64(0)
	for i := range pts {
		pts[i] = Point{Value: v, Prob: 1}
		v += int64(1 + rng.Intn(1<<24))
	}
	for i := range pts {
		pts[i].Prob = 1 / float64(n)
	}
	d, err := New(pts)
	if err != nil {
		panic(err)
	}
	return d
}

// BenchmarkConvolveWideSpan measures the wide-span convolution path
// that used to materialize and sort all n·m pairs (the sort-bound
// stage of high ConvolveAllWith tree levels) and is now a k-way heap
// merge.
func BenchmarkConvolveWideSpan(b *testing.B) {
	x := benchWideDist(2_000, 14)
	y := benchWideDist(2_000, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Convolve(y)
	}
}

// deepTailDist builds an n-atom distribution on the miss-penalty grid
// whose probabilities decay log-linearly from ~1 down to the smallest
// subnormals — log-uniform over the whole float64 range, the shape of
// the top merges of a 256-set penalty reduction read at 1e-15.
func deepTailDist(n int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	v := int64(0)
	var mass float64
	for i := range pts {
		pts[i] = Point{Value: v, Prob: math.Ldexp(1+rng.Float64(), -1070*i/n)}
		mass += pts[i].Prob
		v += 100 * int64(1+rng.Intn(3))
	}
	for i := range pts {
		pts[i].Prob /= mass
	}
	d, err := New(pts)
	if err != nil {
		panic(err)
	}
	return d
}

// BenchmarkConvolveDeepTail measures a deep-tail top merge, 4096 x 2440
// atoms on a shared stride, where most pair products are subnormal or
// round to zero: the pairs whose float64 multiply would take a
// microcode assist. Serial and at 2 workers (the output-partitioned
// path).
func BenchmarkConvolveDeepTail(b *testing.B) {
	x := deepTailDist(4096, 16)
	y := deepTailDist(2440, 17)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for b.Loop() {
				convolveWorkersSem(x, y, workers, nil)
			}
		})
	}
}

// BenchmarkConvolveAllEqualInputs is the monoid fast path in
// isolation: 256 identical per-set distributions, which class
// detection collapses to a single exponentiation-by-squaring shared
// subtree (8 unique convolutions) instead of 255.
func BenchmarkConvolveAllEqualInputs(b *testing.B) {
	ds := make([]*Dist, 256)
	for i := range ds {
		ds[i] = benchSetDist()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := ConvolveAllWith(ds, 4096, 1, CoarsenLeastError)
		_ = total.QuantileExceedance(1e-15)
	}
}

func benchmarkCoarsenTo(b *testing.B, n, maxSupport int, strategy CoarsenStrategy) {
	d := benchDist(n, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.CoarsenToWith(maxSupport, strategy)
	}
}

func BenchmarkCoarsenTo1k(b *testing.B)  { benchmarkCoarsenTo(b, 1_000, 256, CoarsenLeastError) }
func BenchmarkCoarsenTo10k(b *testing.B) { benchmarkCoarsenTo(b, 10_000, 4096, CoarsenLeastError) }
func BenchmarkCoarsenKeepHeaviest10k(b *testing.B) {
	benchmarkCoarsenTo(b, 10_000, 4096, CoarsenKeepHeaviest)
}
