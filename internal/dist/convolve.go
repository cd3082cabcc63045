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
// random variables. This is the analysis hot path — ConvolveAllWith runs
// it at every level of the per-set penalty reduction tree —
// so it avoids map churn entirely:
//
//   - a degenerate operand turns the convolution into a Shift;
//   - when the result's value span, compressed onto the coarsest grid
//     base + k·g holding every pair sum (g is the gcd of both
//     supports' value gaps: penalties are multiples of the miss
//     penalty, so whole reduction trees share a stride; g = 1 is the
//     plain value offset), is small relative to the number of atom
//     pairs, products are accumulated into a single preallocated
//     buffer indexed by grid cell, O(n·m) with no sorting;
//   - otherwise — wide-span operands, the shape of the high levels of
//     ConvolveAllWith's reduction tree — the n sorted per-atom sum streams
//     are merged through a deterministic k-way heap, O(n·m·log k) with
//     k = min(n, m) and O(k) extra memory, instead of materializing
//     and sorting all n·m pairs.
//
// Every pair product is bitwise the float64 product x*q, but computed
// so that no float64 multiply has a subnormal operand or result (those
// take a ~30x microcode assist on x86, and the deep tail of a 256-set
// penalty distribution reaches 1e-323). Each pair falls into one of
// three classes by its operands' binary exponents (see classifyPair),
// and each is bitwise-neutral by construction:
//
//   - hardware (product ≥ 2^-1022, both operands normal): x*q as is;
//   - zero (product < 2^-1075): x*q rounds to +0 and adding +0 is the
//     identity, so the pair is skipped;
//   - band (everything in between): an integer round-to-nearest-even
//     multiply returns exactly the bits of x*q.
//
// The dense kernel also skips a pair whose product is below half an
// ulp of its cell's running sum: the rounded addition would return the
// cell unchanged, so skipping it is exact too.
//
// Each output atom sums its pair products in ascending index of one
// fixed operand (the receiver on the dense path, the smaller operand
// on the k-way path), so the result is a pure function of the operands.
// Total mass is conserved to floating-point accuracy (the result's
// mass is the product of the operands' masses); no renormalization
// happens. Cells whose products all round to 0 are dropped, preserving
// the probs[i] > 0 invariant (the lost mass is below the smallest
// subnormal, far under any tolerance here).
//
// Convolve panics when an extreme pair sum (Min+Min or Max+Max) would
// overflow int64 — like Shift, silently wrapping would corrupt the
// value domain and with it the soundness contract.
func (d *Dist) Convolve(o *Dist) *Dist { return convolveWorkersSem(d, o, 1, nil) }

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

// convolveWorkersSem is Convolve with the work split across up to
// workers goroutines by partitioning the OUTPUT value range. Every
// output atom is owned by exactly one partition and accumulates its
// pair products in the same order the serial path uses (ascending
// index of the first operand on the dense path, ascending stream index
// on the k-way path), so the result is byte-identical to Convolve for
// every worker count and every partitioning — the property
// ConvolveAllWith's worker independence rests on (asserted by
// TestConvolveWorkersByteIdentical, TestConvolveBandOracle and
// FuzzConvolveWorkers). Small convolutions, degenerate operands
// and workers <= 1 run serially. Helper goroutines are drawn from sem
// (see parallelFor); a nil sem spawns them unconditionally.
//
// The split pays on the heavy 256-set tails: on the repo benchmark's
// tail-warm workload (2 CPUs), removing intra-merge splitting raised
// latency_tail_ms by ~31%, past the benchmark's bound, so the path
// stays even though a replay of isolated reductions reads no speedup.
func convolveWorkersSem(d *Dist, o *Dist, workers int, sem chan struct{}) *Dist {
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
	if n*m < minSplitPairs {
		workers = 1
	}
	base := d.values[0] + o.values[0]
	// The span is handled as diff = span - 1 in uint64: the difference
	// of the two extreme sums always fits there even when it exceeds
	// MaxInt64 — including the extreme case where it is 2^64 - 1 and
	// span itself would wrap to 0.
	diff := uint64(d.values[n-1]+o.values[m-1]) - uint64(base)
	var out *Dist
	outer, inner := d, o // outer's ascending index orders each cell's sum
	if g := strideGCD(d, o); diff/g < uint64(denseLimit(n*m)) {
		out = d.convolveDenseStride(o, base, int(diff/g)+1, g, workers, sem)
	} else {
		if n > m {
			outer, inner = o, d // the k-way merge streams the smaller operand
		}
		if workers <= 1 || diff >= 1<<62 {
			// diff >= 1<<62 is an astronomically wide span: partition
			// arithmetic would not fit int64; such inputs are degenerate
			// for the pipeline anyway.
			out = d.convolveKWay(o)
		} else {
			out = d.convolveKWayPar(o, base, int64(diff), workers, sem)
		}
	}
	if checkEnabled && n*m <= checkPlainPairs {
		checkPlain(out, outer, inner)
	}
	return out
}

// minSplitPairs is the pair count under which splitting a convolution
// across goroutines costs more than it saves. Above it, splitting is
// what keeps the tail-warm deep-tail queries fast (see
// convolveWorkersSem).
const minSplitPairs = 1 << 16

// convolveDenseStride accumulates the pair products into a buffer of
// cells grid cells, cell k holding value base + k·g (g = 1 is the plain
// value offset). The kernel is one row loop (bandedOperand.accumulate):
// the serial path runs it over the whole buffer, the parallel path
// with the cell range partitioned into contiguous chunks, one task
// each. A cell's contributions arrive in ascending i order either way —
// each chunk scans i ascending and a given (i, cell) pair determines j
// uniquely — so the result is byte-identical for every worker count.
func (d *Dist) convolveDenseStride(o *Dist, base int64, cells int, g uint64, workers int, sem chan struct{}) *Dist {
	buf := make([]float64, cells)
	var ob bandedOperand
	ob.init(o, g)
	if workers <= 1 {
		ob.accumulate(d, g, buf, 0, cells)
		values := make([]int64, countCells(buf))
		probs := make([]float64, len(values))
		fillCells(buf, 0, base, g, values, probs)
		return fromSorted(values, probs)
	}
	return ob.convolvePar(d, buf, base, g, workers, sem)
}

// convolvePar is the parallel half of convolveDenseStride: accumulate,
// count and extract per chunk. Chunks write disjoint cell and output
// ranges, so the result is independent of scheduling. The operand
// layout is copied so only this path's closures move it to the heap.
func (b *bandedOperand) convolvePar(d *Dist, buf []float64, base int64, g uint64, workers int, sem chan struct{}) *Dist {
	ob := *b
	cells := len(buf)
	chunks := workers * 4
	if chunks > cells {
		chunks = cells
	}
	bound := func(c int) int { return int(int64(cells) * int64(c) / int64(chunks)) }
	counts := make([]int, chunks+1)
	parallelFor(chunks, workers, sem, func(c int) {
		ob.accumulate(d, g, buf, bound(c), bound(c+1))
		counts[c+1] = countCells(buf[bound(c):bound(c+1)])
	})
	for c := 1; c <= chunks; c++ {
		counts[c] += counts[c-1]
	}
	values := make([]int64, counts[chunks])
	probs := make([]float64, counts[chunks])
	parallelFor(chunks, workers, sem, func(c int) {
		lo, hi := counts[c], counts[c+1]
		fillCells(buf[bound(c):bound(c+1)], bound(c), base, g, values[lo:hi], probs[lo:hi])
	})
	return fromSorted(values, probs)
}

// countCells returns the number of nonzero cells.
func countCells(cells []float64) int {
	cnt := 0
	for _, p := range cells {
		if p > 0 {
			cnt++
		}
	}
	return cnt
}

// fillCells writes the nonzero cells of cells, the first of which is
// grid cell first, as atoms into values and probs (sized to their
// count). Cell k holds value base + k·g — exact even when k·g alone
// exceeds int64: the sum is computed mod 2^64 and the true value fits
// (extreme pair sums were overflow-checked by the caller).
func fillCells(cells []float64, first int, base int64, g uint64, values []int64, probs []float64) {
	w := 0
	for k, p := range cells {
		if p > 0 {
			values[w] = int64(uint64(base) + uint64(first+k)*g)
			probs[w] = p
			w++
		}
	}
}

// expBandShift sets the width of an exponent band of bandedOperand:
// atoms whose biased exponent fields agree above the low 6 bits — 64
// binades — share a band, so a probability range from 1 down to the
// smallest subnormal spans at most 17 bands.
const (
	expBandShift = 6
	maxExpBands  = 2048 >> expBandShift
)

// bandAtom is one atom of the column operand: its grid cell offset
// (v - Min)/g and its probability.
type bandAtom struct {
	off  int
	prob float64
}

// expBand is one nonempty exponent band: atoms[lo:hi], whose exponent
// fields lie in [emin, emax].
type expBand struct {
	lo, hi     int
	emin, emax int
}

// bandedOperand is the column operand o of a dense convolution with
// its atoms grouped into binary-exponent bands, each band sorted by
// cell offset. Against one row x, a whole band is hardware when its
// emin is, zero when its emax is (classifyPair is monotone), and only
// the few bands straddling a class cut need a per-pair class: the
// kernel runs most bands branch-free or skips them outright. In those
// few bands a pair whose product the cell would absorb is skipped
// before any multiply (see absorbed). Inside a
// row the order in which bands visit their cells is free, because a
// row adds at most one product to each cell (cell = di + off is
// injective in the atom); across rows the order stays ascending i.
//
// The band layout is a single allocation; the band table is a fixed
// array.
type bandedOperand struct {
	atoms  []bandAtom
	bands  [maxExpBands]expBand
	nb     int
	maxOff int
}

// init lays out o's atoms in bands, heaviest binades first, ascending
// offset within a band (a counting sort by band that keeps atom
// order).
func (b *bandedOperand) init(o *Dist, g uint64) {
	var count [maxExpBands]int
	for _, p := range o.probs {
		count[expField(p)>>expBandShift]++
	}
	var slot [maxExpBands]int
	pos := 0
	for k := maxExpBands - 1; k >= 0; k-- {
		if count[k] == 0 {
			continue
		}
		slot[k] = b.nb
		// hi starts at lo and serves as the band's write cursor.
		b.bands[b.nb] = expBand{lo: pos, hi: pos, emin: math.MaxInt, emax: 0}
		b.nb++
		pos += count[k]
	}
	b.atoms = make([]bandAtom, len(o.probs))
	v0 := o.values[0]
	for j, p := range o.probs {
		e := expField(p)
		bd := &b.bands[slot[e>>expBandShift]]
		b.atoms[bd.hi] = bandAtom{off: int((uint64(o.values[j]) - uint64(v0)) / g), prob: p}
		bd.hi++
		bd.emin = min(bd.emin, e)
		bd.emax = max(bd.emax, e)
	}
	b.maxOff = int((uint64(o.values[len(o.values)-1]) - uint64(v0)) / g)
}

// accumulate is the dense row kernel: for every row i of d in
// ascending order it adds x·q for each column atom q into cell
// di + off, restricted to the cell window [lo, hi) of buf. Per band,
// the atoms whose cells fall in the window are a contiguous run
// [s, e) whose cursors only move down as i (and with it di) grows.
func (b *bandedOperand) accumulate(d *Dist, g uint64, buf []float64, lo, hi int) {
	var s, e [maxExpBands]int
	for k := 0; k < b.nb; k++ {
		s[k], e[k] = b.bands[k].hi, b.bands[k].hi
	}
	v0 := d.values[0]
	for i, vi := range d.values {
		di := int((uint64(vi) - uint64(v0)) / g)
		if di >= hi {
			break
		}
		if di+b.maxOff < lo {
			continue
		}
		x := d.probs[i]
		ex := expField(x)
		row := buf[di:]
		for k := 0; k < b.nb; k++ {
			bd := &b.bands[k]
			for s[k] > bd.lo && b.atoms[s[k]-1].off >= lo-di {
				s[k]--
			}
			for e[k] > s[k] && b.atoms[e[k]-1].off >= hi-di {
				e[k]--
			}
			atoms := b.atoms[s[k]:e[k]]
			switch {
			case len(atoms) == 0:
			case classifyPair(ex, bd.emin) == pairHardware:
				for _, a := range atoms {
					row[a.off] += x * a.prob
				}
			case classifyPair(ex, bd.emax) == pairZero:
				// Every product rounds to +0: nothing to add.
			default:
				for _, a := range atoms {
					if c := &row[a.off]; !absorbed(ex+expField(a.prob), expField(*c)) {
						*c += mulProb(x, a.prob)
					}
				}
			}
		}
	}
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
		p := mulProb(d.probs[i], o.probs[ptr[i]])
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
// sort, which made high ConvolveAllWith tree levels sort-bound.
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
