package dist

import (
	"fmt"
	"math"
	"slices"
)

// checkMassTolerance bounds how far the total mass of a checked
// distribution may exceed 1. Operations conserve mass only to
// floating-point accuracy and never renormalize, so after long
// Convolve/Coarsen chains the mass sits a few ulps off; 1e-6 is orders
// of magnitude above any legitimate drift and orders below any real
// corruption. Masses below 1 are legitimate: Convolve's result mass is
// the product of its operands' masses, and intermediate weighted terms
// carry sub-unit mass by design — but mass can never legitimately grow
// past 1.
const checkMassTolerance = 1e-6

// check asserts the representation invariants of a Dist and panics with
// the violation when one fails. It is called from construction sites
// under `if checkEnabled` — the pwcetcheck build tag (see check_on.go);
// in a default build the guard is constant-false and this function is
// never reached.
//
// Invariants checked:
//
//   - parallel slices: len(values) == len(probs) == len(ccdf) > 0;
//   - values strictly increasing (sorted, duplicate-free);
//   - every probability finite and > 0 (zero atoms are dropped by
//     construction; they would corrupt Max and QuantileExceedance);
//   - total mass at most 1 + checkMassTolerance (sub-unit masses are
//     legitimate intermediates; super-unit mass is always corruption);
//   - the ccdf is exactly the backward suffix sum of probs (bitwise:
//     fromSorted computes it in one deterministic order and every
//     operation preserves or recomputes it the same way), which implies
//     ccdf[len-1] == 0 and monotone non-increase.
//
// The int64 overflow pre-checks of Shift and Convolve are unconditional
// production code, not part of the sanitizer.
func (d *Dist) check(where string) {
	n := len(d.values)
	if n == 0 || len(d.probs) != n || len(d.ccdf) != n {
		panic(fmt.Sprintf("pwcetcheck: %s: malformed Dist: %d values, %d probs, %d ccdf",
			where, n, len(d.probs), len(d.ccdf)))
	}
	var mass float64
	var tail float64
	for i := n - 1; i >= 0; i-- {
		if i > 0 && d.values[i-1] >= d.values[i] {
			panic(fmt.Sprintf("pwcetcheck: %s: atoms not strictly sorted: values[%d]=%d >= values[%d]=%d",
				where, i-1, d.values[i-1], i, d.values[i]))
		}
		p := d.probs[i]
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			panic(fmt.Sprintf("pwcetcheck: %s: probs[%d] = %g (want finite and > 0)", where, i, p))
		}
		if d.ccdf[i] != tail {
			panic(fmt.Sprintf("pwcetcheck: %s: ccdf[%d] = %g, want suffix sum %g", where, i, d.ccdf[i], tail))
		}
		tail += p
		mass += p
	}
	if mass > 1+checkMassTolerance {
		panic(fmt.Sprintf("pwcetcheck: %s: total mass %g exceeds 1 by more than %g", where, mass, checkMassTolerance))
	}
}

// checkPlainPairs is the pair count up to which the sanitizer re-runs
// a convolution through plainConvolve: every per-set and low-tree
// convolution of the pipeline, at a quadratic cost that stays small.
const checkPlainPairs = 4096

// checkPlain panics unless out, the kernel's convolution of outer and
// inner, holds bitwise the atoms of plainConvolve(outer, inner).
func checkPlain(out, outer, inner *Dist) {
	want := plainConvolve(outer, inner)
	if len(out.values) != len(want.values) {
		panic(fmt.Sprintf("pwcetcheck: Convolve: %d atoms, plain loop %d", len(out.values), len(want.values)))
	}
	for k, v := range out.values {
		if v != want.values[k] || math.Float64bits(out.probs[k]) != math.Float64bits(want.probs[k]) {
			panic(fmt.Sprintf("pwcetcheck: Convolve: atom %d is (%d, %b), plain loop (%d, %b)",
				k, v, out.probs[k], want.values[k], want.probs[k]))
		}
	}
}

// plainConvolve is the reference convolution the kernels are pinned
// to: the plain dense loop with a's atoms in ascending order outside,
// a float64 multiply per pair, cells whose sum is 0 dropped. Its cells
// are the distinct pair sums (sorted), so it runs on any value span in
// O(n·m·log(n·m)).
func plainConvolve(a, b *Dist) *Dist {
	sums := make([]int64, 0, len(a.values)*len(b.values))
	for _, va := range a.values {
		for _, vb := range b.values {
			sums = append(sums, va+vb)
		}
	}
	slices.Sort(sums)
	sums = slices.Compact(sums)
	buf := make([]float64, len(sums))
	for i, va := range a.values {
		pi := a.probs[i]
		for j, vb := range b.values {
			k, _ := slices.BinarySearch(sums, va+vb)
			buf[k] += pi * b.probs[j]
		}
	}
	values := make([]int64, 0, len(sums))
	probs := make([]float64, 0, len(sums))
	for k, p := range buf {
		if p > 0 {
			values = append(values, sums[k])
			probs = append(probs, p)
		}
	}
	return fromSorted(values, probs)
}
