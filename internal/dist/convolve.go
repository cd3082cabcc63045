package dist

import (
	"fmt"
	"math"
	"sort"
)

// maxDenseSpan caps the dense accumulator at 4M float64 cells (32 MB)
// no matter how many pairs a convolution produces.
const maxDenseSpan = 1 << 22

// Convolve returns the distribution of the sum of two independent
// random variables. This is the analysis hot path — convolveFMM folds
// it once per cache set and ConvolveAll runs it at every tree level —
// so it avoids map churn entirely:
//
//   - a degenerate operand turns the convolution into a Shift;
//   - when the result's value span is small relative to the number of
//     atom pairs (the common case: penalties share the miss-penalty
//     granularity), products are accumulated into a single
//     preallocated buffer indexed by value offset, O(n·m) with no
//     sorting and no allocation beyond the buffer and the result;
//   - when the raw span is too wide but both supports share a common
//     value stride g > 1 (penalties are multiples of the miss penalty,
//     so whole reduction trees do), the same flat accumulation runs on
//     the compressed grid base + k·g with span/g cells — bitwise the
//     same atoms in the same order, at a fraction of the buffer;
//   - otherwise — wide-span operands, the shape of the high levels of
//     ConvolveAll's reduction tree — the n sorted per-atom sum streams
//     are merged through a deterministic k-way heap, O(n·m·log k) with
//     k = min(n, m) and O(k) extra memory, instead of materializing
//     and sorting all n·m pairs.
//
// Total mass is conserved to floating-point accuracy (the result's
// mass is the product of the operands' masses); no renormalization
// happens. Pair products that underflow to exactly 0 are dropped on
// both paths, preserving the probs[i] > 0 invariant (the lost mass is
// below the smallest subnormal, far under any tolerance here).
//
// Convolve panics when an extreme pair sum (Min+Min or Max+Max) would
// overflow int64 — like Shift, silently wrapping would corrupt the
// value domain and with it the soundness contract.
func (d *Dist) Convolve(o *Dist) *Dist {
	if checkEnabled {
		d.check("Convolve operand")
		o.check("Convolve operand")
	}
	n, m := len(d.values), len(o.values)
	checkSumOverflow(d.values[0], o.values[0])
	checkSumOverflow(d.values[n-1], o.values[m-1])
	if n == 1 {
		// P(X = v) = 1: the sum is o shifted by v, scaled by the
		// (unit) mass.
		return o.Shift(d.values[0])
	}
	if m == 1 {
		return d.Shift(o.values[0])
	}
	base := d.values[0] + o.values[0]
	// The span is compared as (span - 1) in uint64: the difference of
	// the two extreme sums always fits there even when it exceeds
	// MaxInt64 — including the extreme case where it is 2^64 - 1 and
	// span itself would wrap to 0.
	diff := uint64(d.values[n-1]+o.values[m-1]) - uint64(base)
	if diff < uint64(denseLimit(n*m)) {
		if diff >= minStrideCells {
			if g := strideGCD(d, o); g > 1 {
				return d.convolveDenseStride(o, base, int(diff/g)+1, g)
			}
		}
		return d.convolveDense(o, base, int(diff)+1)
	}
	// A raw span too wide for the dense buffer often compresses onto a
	// coarse grid: penalty values are multiples of the cache miss
	// penalty, so whole reduction trees share a common value stride.
	if g := strideGCD(d, o); g > 1 {
		if cells := diff/g + 1; cells <= uint64(denseLimit(n*m)) {
			return d.convolveDenseStride(o, base, int(cells), g)
		}
	}
	return d.convolveKWay(o)
}

// minStrideCells is the raw span under which the plain dense buffer is
// already cache-resident and the stride grid would only add the offset
// precomputation. Above it, a shared stride g > 1 divides the buffer
// (the two dense paths produce bitwise-identical results, so the choice
// is purely a locality matter).
const minStrideCells = 1 << 15

// strideGCD returns the greatest common divisor of every adjacent value
// difference of both operands: the coarsest grid base + k·g that holds
// every pair sum.
func strideGCD(d, o *Dist) uint64 {
	return valuesGCD(valuesGCD(0, d.values), o.values)
}

// valuesGCD folds the adjacent differences of a sorted value slice into
// a running gcd g (0 acts as the gcd identity). Differences are taken
// in uint64 — values are sorted ascending, so each difference is
// positive and exact even when the raw int64 subtraction would
// overflow. Returns early on 1 (the common case for unstructured
// supports).
func valuesGCD(g uint64, vs []int64) uint64 {
	for i := 1; i < len(vs); i++ {
		diff := uint64(vs[i]) - uint64(vs[i-1])
		for diff != 0 {
			g, diff = diff, g%diff
		}
		if g == 1 {
			return 1
		}
	}
	return g
}

// checkSumOverflow panics when a+b is not representable in int64. The
// interior pair sums of a convolution are bracketed by the extreme
// ones, so Convolve only needs this at the two extremes.
func checkSumOverflow(a, b int64) {
	if (b > 0 && a > math.MaxInt64-b) || (b < 0 && a < math.MinInt64-b) {
		panic(fmt.Sprintf("dist: Convolve overflows int64: %d + %d is not representable", a, b))
	}
}

// denseLimit bounds the dense accumulator size: proportional to the
// O(n·m) work the convolution does anyway, hard-capped at
// maxDenseSpan.
func denseLimit(pairs int) int {
	l := 8*pairs + 1024
	if l > maxDenseSpan || l < 0 {
		return maxDenseSpan
	}
	return l
}

// convolveDense accumulates pair products into a value-indexed buffer.
func (d *Dist) convolveDense(o *Dist, base int64, span int) *Dist {
	buf := make([]float64, span)
	for i, vi := range d.values {
		pi := d.probs[i]
		off := vi - base
		for j, vj := range o.values {
			buf[off+vj] += pi * o.probs[j]
		}
	}
	cnt := 0
	for _, p := range buf {
		if p > 0 {
			cnt++
		}
	}
	values := make([]int64, 0, cnt)
	probs := make([]float64, 0, cnt)
	for k, p := range buf {
		if p > 0 {
			values = append(values, base+int64(k))
			probs = append(probs, p)
		}
	}
	return fromSorted(values, probs)
}

// convolveDenseStride is convolveDense on the compressed grid
// base + k·g: when both operands' supports share a stride g > 1, every
// pair sum lands on the grid and the accumulator needs span/g cells
// instead of span — a 20 MB cache-thrashing buffer shrinks to a
// cache-resident one for miss-penalty-aligned supports. The inner loop
// adds into a contiguous offset-indexed row (ooff is precomputed once,
// no per-atom division or search), and a cell's contributions arrive in
// the same ascending-i order as convolveDense, so the choice between
// the two dense paths can never change an atom's accumulation order.
func (d *Dist) convolveDenseStride(o *Dist, base int64, cells int, g uint64) *Dist {
	buf := make([]float64, cells)
	ooff := denseOffsets(o, g)
	for i, vi := range d.values {
		pi := d.probs[i]
		row := buf[(uint64(vi)-uint64(d.values[0]))/g:]
		for j, oj := range ooff {
			row[oj] += pi * o.probs[j]
		}
	}
	cnt := 0
	for _, p := range buf {
		if p > 0 {
			cnt++
		}
	}
	values := make([]int64, 0, cnt)
	probs := make([]float64, 0, cnt)
	for k, p := range buf {
		if p > 0 {
			// Exact even when k·g alone exceeds int64: the sum is
			// computed mod 2^64 and the true value fits (extreme pair
			// sums were overflow-checked by the caller).
			values = append(values, int64(uint64(base)+uint64(k)*g))
			probs = append(probs, p)
		}
	}
	return fromSorted(values, probs)
}

// denseOffsets precomputes each atom's cell offset (v - Min) / g.
func denseOffsets(o *Dist, g uint64) []int {
	ooff := make([]int, len(o.values))
	for j, vj := range o.values {
		ooff[j] = int((uint64(vj) - uint64(o.values[0])) / g)
	}
	return ooff
}

// convolveWorkersSem is Convolve with the work split across up to
// workers goroutines by partitioning the OUTPUT value range. Every
// output atom is owned by exactly one partition and accumulates its
// pair products in the same order the serial path uses (ascending
// index of the first operand on the dense path, ascending stream index
// on the k-way path), so the result is byte-identical to Convolve for every worker
// count and every partitioning — the property ConvolveAll's worker
// independence rests on (asserted by TestConvolveWorkersByteIdentical
// and FuzzConvolveWorkers). Small convolutions and degenerate operands
// fall through to the serial implementation. Helper goroutines are
// drawn from sem (see parallelFor); a nil sem spawns them
// unconditionally.
//
// The split pays on the heavy 256-set tails: on the repo benchmark's
// tail-warm workload (2 CPUs), removing intra-merge splitting raised
// latency_tail_ms by ~31%, past the benchmark's bound, so the path
// stays even though a replay of isolated reductions reads no speedup.
func convolveWorkersSem(d *Dist, o *Dist, workers int, sem chan struct{}) *Dist {
	n, m := len(d.values), len(o.values)
	if workers <= 1 || n == 1 || m == 1 || n*m < minSplitPairs {
		return d.Convolve(o)
	}
	checkSumOverflow(d.values[0], o.values[0])
	checkSumOverflow(d.values[n-1], o.values[m-1])
	base := d.values[0] + o.values[0]
	diff := uint64(d.values[n-1]+o.values[m-1]) - uint64(base)
	if diff < uint64(denseLimit(n*m)) {
		if diff >= minStrideCells {
			if g := strideGCD(d, o); g > 1 {
				return d.convolveDenseStridePar(o, base, int(diff/g)+1, g, workers, sem)
			}
		}
		return d.convolveDensePar(o, base, int(diff)+1, workers, sem)
	}
	if g := strideGCD(d, o); g > 1 {
		if cells := diff/g + 1; cells <= uint64(denseLimit(n*m)) {
			return d.convolveDenseStridePar(o, base, int(cells), g, workers, sem)
		}
	}
	if diff >= 1<<62 {
		// Astronomically wide span: partition arithmetic would not fit
		// int64; the serial k-way merge handles it, and such inputs
		// are degenerate for the pipeline anyway.
		return d.convolveKWay(o)
	}
	return d.convolveKWayPar(o, base, int64(diff), workers, sem)
}

// minSplitPairs is the pair count under which splitting a convolution
// across goroutines costs more than it saves. Above it, splitting is
// what keeps the tail-warm deep-tail queries fast (see
// convolveWorkersSem).
const minSplitPairs = 1 << 16

// convolveDensePar is convolveDense with the output span partitioned
// into contiguous chunks, each filled by one task. A cell's
// contributions still arrive in ascending i order — identical to the
// serial loop — because each chunk scans i ascending and a given (i,
// cell) pair determines j uniquely.
func (d *Dist) convolveDensePar(o *Dist, base int64, span, workers int, sem chan struct{}) *Dist {
	buf := make([]float64, span)
	chunks := workers * 4
	if chunks > span {
		chunks = span
	}
	bound := func(c int) int { return int(int64(span) * int64(c) / int64(chunks)) }
	parallelFor(chunks, workers, sem, func(c int) {
		lo, hi := int64(bound(c)), int64(bound(c+1))
		for i, vi := range d.values {
			off := vi - base // cell = off + vj, always in [0, span)
			pi := d.probs[i]
			jlo := sort.Search(len(o.values), func(j int) bool { return off+o.values[j] >= lo })
			for j := jlo; j < len(o.values); j++ {
				cell := off + o.values[j]
				if cell >= hi {
					break
				}
				buf[cell] += pi * o.probs[j]
			}
		}
	})
	return extractDensePar(buf, base, 1, chunks, workers, bound, sem)
}

// extractDensePar turns a dense cell buffer into a Dist in parallel:
// count per chunk, prefix offsets, fill. Cell k holds value
// base + k·g. Chunks write disjoint output ranges, so the result is
// independent of scheduling.
func extractDensePar(buf []float64, base int64, g uint64, chunks, workers int, bound func(int) int, sem chan struct{}) *Dist {
	counts := make([]int, chunks)
	parallelFor(chunks, workers, sem, func(c int) {
		cnt := 0
		for _, p := range buf[bound(c):bound(c+1)] {
			if p > 0 {
				cnt++
			}
		}
		counts[c] = cnt
	})
	total := 0
	offs := make([]int, chunks+1)
	for c, cnt := range counts {
		offs[c] = total
		total += cnt
	}
	offs[chunks] = total
	values := make([]int64, total)
	probs := make([]float64, total)
	parallelFor(chunks, workers, sem, func(c int) {
		w := offs[c]
		lo := bound(c)
		for k, p := range buf[lo:bound(c+1)] {
			if p > 0 {
				values[w] = int64(uint64(base) + uint64(lo+k)*g)
				probs[w] = p
				w++
			}
		}
	})
	return fromSorted(values, probs)
}

// convolveDenseStridePar is convolveDenseStride with the cell range
// partitioned into contiguous chunks, each filled by one task — the
// stride twin of convolveDensePar, with the same byte-identity
// argument: a cell's contributions arrive in ascending i order
// whatever the partition, because each chunk scans i ascending and a
// given (i, cell) pair determines j uniquely.
func (d *Dist) convolveDenseStridePar(o *Dist, base int64, cells int, g uint64, workers int, sem chan struct{}) *Dist {
	buf := make([]float64, cells)
	ooff := denseOffsets(o, g)
	chunks := workers * 4
	if chunks > cells {
		chunks = cells
	}
	bound := func(c int) int { return int(int64(cells) * int64(c) / int64(chunks)) }
	parallelFor(chunks, workers, sem, func(c int) {
		lo, hi := bound(c), bound(c+1)
		for i, vi := range d.values {
			di := int((uint64(vi) - uint64(d.values[0])) / g)
			pi := d.probs[i]
			jlo := sort.Search(len(ooff), func(j int) bool { return di+ooff[j] >= lo })
			for j := jlo; j < len(ooff); j++ {
				cell := di + ooff[j]
				if cell >= hi {
					break
				}
				buf[cell] += pi * o.probs[j]
			}
		}
	})
	return extractDensePar(buf, base, g, chunks, workers, bound, sem)
}

// convolveKWayPar runs the k-way merge with the output sum range
// partitioned into contiguous value intervals, one restricted merge
// per chunk, concatenated in chunk order. Equal sums never straddle a
// chunk boundary and each chunk pops them in the same (sum, stream)
// order as the full merge, so the concatenation is byte-identical to
// convolveKWay.
func (d *Dist) convolveKWayPar(o *Dist, base int64, diff int64, workers int, sem chan struct{}) *Dist {
	if len(d.values) > len(o.values) {
		d, o = o, d
	}
	chunks := workers * 4
	if int64(chunks) > diff+1 {
		chunks = int(diff + 1)
	}
	// Any partition of the sum range yields the identical result (each
	// chunk owns its sums outright), so plain equal steps suffice.
	// Chunk c covers sums in [start(c), start(c+1)-1], the last one up
	// to the true maximal sum base+diff (inclusive bounds keep the
	// arithmetic inside int64 even at the extremes).
	step := (diff + 1) / int64(chunks)
	start := func(c int) int64 { return base + step*int64(c) }
	vparts := make([][]int64, chunks)
	pparts := make([][]float64, chunks)
	// Presize each chunk for its share of the usual near-k·m output,
	// like the serial path does for the whole range.
	hint := len(d.values) * len(o.values) / chunks
	if hint > 1<<22/chunks {
		hint = 1 << 22 / chunks
	}
	parallelFor(chunks, workers, sem, func(c int) {
		hi := base + diff
		if c < chunks-1 {
			hi = start(c+1) - 1
		}
		vparts[c], pparts[c] = d.mergeKWayRange(o, start(c), hi, hint)
	})
	total := 0
	for _, vp := range vparts {
		total += len(vp)
	}
	values := make([]int64, 0, total)
	probs := make([]float64, 0, total)
	for c := range vparts {
		values = append(values, vparts[c]...)
		probs = append(probs, pparts[c]...)
	}
	return fromSorted(values, probs)
}

// mergeKWayRange merges the per-atom sum streams restricted to sums in
// [lo, hi] (inclusive on both ends). It is the single k-way merge loop
// of the package: convolveKWay runs it over the full sum range and
// convolveKWayPar over one partition each. d must be the smaller
// operand. sizeHint, when positive, presizes the output slices.
//
// The heap order is (sum, stream index). The sift is a local closure
// rather than the shared siftDownFunc on purpose: this loop runs
// O(n·m) times on the wide-span hot path and the indirect comparison
// call costs ~30% there (measured on BenchmarkConvolveWideSpan).
func (d *Dist) mergeKWayRange(o *Dist, lo, hi int64, sizeHint int) ([]int64, []float64) {
	k, m := len(d.values), len(o.values)
	h := make([]streamHead, 0, k)
	ptr := make([]int, k)
	for i := 0; i < k; i++ {
		vi := d.values[i]
		j := sort.Search(m, func(j int) bool { return vi+o.values[j] >= lo })
		if j == m || vi+o.values[j] > hi {
			ptr[i] = m // stream contributes nothing to this range
			continue
		}
		ptr[i] = j
		h = append(h, streamHead{sum: vi + o.values[j], i: int32(i)})
	}
	less := func(a, b streamHead) bool {
		return a.sum < b.sum || (a.sum == b.sum && a.i < b.i)
	}
	siftDown := func(root int) {
		for {
			child := 2*root + 1
			if child >= len(h) {
				return
			}
			if r := child + 1; r < len(h) && less(h[r], h[child]) {
				child = r
			}
			if !less(h[child], h[root]) {
				return
			}
			h[root], h[child] = h[child], h[root]
			root = child
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	values := make([]int64, 0, sizeHint)
	probs := make([]float64, 0, sizeHint)
	for len(h) > 0 {
		top := h[0]
		i := int(top.i)
		p := d.probs[i] * o.probs[ptr[i]]
		if last := len(values) - 1; last >= 0 && values[last] == top.sum {
			probs[last] += p
		} else if p > 0 {
			values = append(values, top.sum)
			probs = append(probs, p)
		}
		ptr[i]++
		if ptr[i] < m && d.values[i]+o.values[ptr[i]] <= hi {
			h[0].sum = d.values[i] + o.values[ptr[i]]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return values, probs
}

// streamHead is one k-way-merge cursor: the next unconsumed sum of
// stream i (the i-th atom of the smaller operand paired with the
// ascending atoms of the larger one).
type streamHead struct {
	sum int64
	i   int32
}

// convolveKWay merges the k sorted per-atom sum streams of the smaller
// operand with a binary min-heap, accumulating equal sums as they pop
// out in order. Used when the value span is too wide for the dense
// buffer: O(n·m·log k) time and O(k) transient memory replace the old
// materialize-and-sort path's O(n·m) pair buffer and O(n·m·log(n·m))
// sort, which made high ConvolveAll tree levels sort-bound.
//
// The heap orders by (sum, stream index), so pops — and with them the
// per-value accumulation order — are a pure function of the operands:
// the result is deterministic, and for every output value the
// contributions are summed in ascending stream order, the same order
// the dense path uses. The loop itself is mergeKWayRange over the full
// sum range.
func (d *Dist) convolveKWay(o *Dist) *Dist {
	if len(d.values) > len(o.values) {
		d, o = o, d
	}
	k, m := len(d.values), len(o.values)
	// Wide-span operands rarely collide on sums, so the output is
	// usually close to k·m atoms; presize for it (bounded, so a huge
	// convolution starts at a sane capacity and grows from there).
	est := k * m
	if est > 1<<22 {
		est = 1 << 22
	}
	values, probs := d.mergeKWayRange(o, d.values[0]+o.values[0], d.values[k-1]+o.values[m-1], est)
	return fromSorted(values, probs)
}
