package dist

import (
	"math"
	"testing"
)

// TestPwcetcheckCatchesCorruptDist: under -tags pwcetcheck, feeding a
// hand-corrupted Dist (atoms out of order) into an operation must panic
// in the sanitizer instead of silently producing a wrong curve. Without
// the tag the test is skipped — the checks are compiled out there.
func TestPwcetcheckCatchesCorruptDist(t *testing.T) {
	if !checkEnabled {
		t.Skip("pwcetcheck tag not enabled; sanitizer assertions are compiled out")
	}
	corrupt := &Dist{
		values: []int64{10, 5}, // unsorted: violates the representation
		probs:  []float64{0.5, 0.5},
		ccdf:   []float64{0.5, 0},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Convolve on a corrupted Dist did not panic under pwcetcheck")
		}
	}()
	_ = corrupt.Convolve(Degenerate(1))
}

// TestPwcetcheckCatchesBrokenCCDF: a ccdf that is not the suffix sum of
// probs (here: stale after a hypothetical in-place mutation) must be
// caught too.
func TestPwcetcheckCatchesBrokenCCDF(t *testing.T) {
	if !checkEnabled {
		t.Skip("pwcetcheck tag not enabled; sanitizer assertions are compiled out")
	}
	corrupt := &Dist{
		values: []int64{1, 2},
		probs:  []float64{0.5, 0.5},
		ccdf:   []float64{0.25, 0}, // suffix sum would be 0.5
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Convolve on a Dist with inconsistent ccdf did not panic under pwcetcheck")
		}
	}()
	_ = corrupt.Convolve(Degenerate(1))
}

// TestPwcetcheckCatchesKernelMismatch: a convolution result one ulp
// off the plain loop must fail the sanitizer's cross-check.
func TestPwcetcheckCatchesKernelMismatch(t *testing.T) {
	a := subUnit([]int64{0, 3, 7}, []float64{1, 2, 3}, 1)
	b := subUnit([]int64{1, 2}, []float64{1, 1}, 1)
	out := a.Convolve(b)
	checkPlain(out, a, b) // the kernel agrees with the plain loop
	probs := append([]float64(nil), out.probs...)
	probs[2] = math.Nextafter(probs[2], 1)
	defer func() {
		if recover() == nil {
			t.Fatal("checkPlain accepted a result one ulp off the plain loop")
		}
	}()
	checkPlain(fromSorted(append([]int64(nil), out.values...), probs), a, b)
}
