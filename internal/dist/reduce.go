package dist

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// siftDownFunc restores the min-heap property of h rooted at root,
// under the given strict order. One implementation serves every heap
// in the package — the merge-plan builder and the k-way merge cursors
// — so their tie-break semantics cannot drift apart.
func siftDownFunc[T any](h []T, root int, less func(a, b T) bool) {
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

// ConvolveAll returns the distribution of the sum of all ds (mutually
// independent random variables), reducing them by a size-aware binary
// merge tree instead of a left fold. The merge schedule is built
// statically, Huffman-style: a min-heap of pending distributions keyed
// by (estimated support size, arrival order) always pairs the two
// smallest operands next, so skewed inputs (many degenerate or tiny
// per-set distributions next to capped 4096-atom partials) never drag
// a small operand through a chain of large convolutions. For a
// power-of-two count of equal-size inputs the schedule reproduces the
// balanced pairwise tree of earlier revisions exactly (the paper's 16-
// and 256-set geometries); other counts pair the trailing operands
// earlier than the old level-synchronized tree did, so partial
// products may associate differently. Each partial product is coarsened
// to maxSupport support points only when it exceeds the cap (CoarsenTo
// is the identity below it), so the result carries the same soundness
// contract as the fold: a pessimistic upper bound on the exceedance
// curve whenever the cap binds, the exact distribution otherwise.
// maxSupport <= 0 disables coarsening.
//
// workers bounds the goroutines executing merge-tree nodes
// concurrently; 0 means GOMAXPROCS, 1 is fully sequential. The
// schedule is a pure function of the input sizes, every node's product
// is a pure function of its two children, and the worker-split
// convolution of large nodes partitions the OUTPUT value range — each
// output atom is accumulated in the same order whatever the partition
// — so the result is byte-identical for every worker count. Unlike the
// level-synchronized tree this replaces, dependency-driven execution
// also overlaps tree levels, and the final wide merges at the top of
// the tree split across the worker pool instead of serializing it.
//
// An empty ds yields Degenerate(0), the neutral element of convolution.
//
// # Monoid structure
//
// Distributions form a commutative monoid under convolution, and the
// reduction exploits it three ways. First, the inputs are reordered
// canonically (by content, not position), so the result is invariant
// under any permutation of ds. Second, equal and shift-equivalent
// inputs — the common shape of per-set penalty distributions, one
// distribution per fault profile replicated across sets — are detected
// up front by content comparison and shift normalization, and the merge
// tree is hash-consed: every node is keyed by its (class, class)
// children, so each distinct subtree convolves once and k equal inputs
// cost O(log k) convolutions (the shared balanced subtrees ARE the
// exponentiation-by-squaring of Pow), with one final Shift restoring
// the accumulated offsets. Shifting commutes bitwise with convolution
// on every path (identical accumulation orders, identical products), so
// the sharing cannot change a single bit of the result.
//
// Third, when the exact final support provably dwarfs maxSupport, an
// exceedance-area budget is spread over the merge tree and big operands
// are pre-coarsened toward maxSupport/4 before convolving (in-tree
// coarsening, CoarsenLeastError only), keeping intermediate pair counts
// — and with them the whole reduction — bounded instead of ballooning
// to maxSupport² per node. See convolveAllOpt for the budget split and
// the exactness conditions.
//
// ConvolveAll coarsens with the default CoarsenLeastError strategy;
// ConvolveAllWith selects the strategy explicitly. ConvolveAllExactWith
// is the retained reference reduction — same
// canonical order and merge plan, no sharing, no in-tree coarsening —
// byte-identical to the optimized path whenever no coarsening binds
// (core.Options.ExactConvolve routes the pipeline through it for
// differential validation).
func ConvolveAll(ds []*Dist, maxSupport, workers int) *Dist {
	return ConvolveAllWith(ds, maxSupport, workers, CoarsenLeastError)
}

// mergeStep is one internal node of the static merge tree: node
// len(ds)+k convolves nodes l and r.
type mergeStep struct {
	l, r int32
}

// sizeCap bounds the support-size estimates when coarsening is
// disabled, keeping the products inside int64.
const sizeCap = int64(1) << 40

// buildMergePlan builds the Huffman-style merge schedule from the
// input support sizes alone: repeatedly pair the two smallest pending
// nodes, estimating each product's size as min(l*r, maxSupport) —
// coarsening caps whatever exceeds maxSupport. Ties break on arrival
// order (input index, then creation order), which makes the plan
// deterministic and reduces to the balanced pairwise tree for
// power-of-two counts of equal-size inputs.
func buildMergePlan(ds []*Dist, maxSupport int) []mergeStep {
	n := len(ds)
	type node struct {
		size int64
		seq  int32
	}
	h := make([]node, n)
	for i, d := range ds {
		h[i] = node{size: int64(d.Len()), seq: int32(i)}
	}
	less := func(a, b node) bool {
		return a.size < b.size || (a.size == b.size && a.seq < b.seq)
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownFunc(h, i, less)
	}
	pop := func() node {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDownFunc(h, 0, less)
		return top
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(h[i], h[parent]) {
				return
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	cap64 := sizeCap
	if maxSupport > 0 && int64(maxSupport) < cap64 {
		cap64 = int64(maxSupport)
	}
	plan := make([]mergeStep, 0, n-1)
	for len(h) > 1 {
		a := pop()
		b := pop()
		// Saturating product: a wrap-around could land non-negative
		// (two sizeCap nodes multiply to 2^80 ≡ 0 mod 2^64) and
		// misrank the largest pending node as the smallest.
		est := cap64
		if a.size == 0 || b.size <= cap64/a.size {
			est = a.size * b.size
		}
		id := int32(n + len(plan))
		plan = append(plan, mergeStep{l: a.seq, r: b.seq})
		h = append(h, node{size: est, seq: id})
		siftUp(len(h) - 1)
	}
	return plan
}

// ConvolveAllWith is ConvolveAll with an explicit coarsening strategy
// applied to every over-cap partial product (and the final result).
// The strategy never changes which pairs convolve — the schedule is
// keyed on maxSupport and the input sizes only — so the same
// worker-count independence holds for every strategy. In-tree budget
// coarsening only ever runs under CoarsenLeastError; the legacy
// CoarsenKeepHeaviest reduction stays final-coarsen-only.
func ConvolveAllWith(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy) *Dist {
	d, _ := convolveAllOpt(ds, maxSupport, workers, strategy)
	return d
}

// ConvolveAllCancelWith is ConvolveAllWith with a cancellation probe:
// probe (typically a context.Context's Err method) is consulted once
// per merge node, and the first non-nil error abandons the remaining
// convolutions and is returned in place of a result. Cancellation is
// clean — every merge goroutine finishes before the call returns — and
// a nil probe makes the function equivalent to ConvolveAllWith.
func ConvolveAllCancelWith(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy, probe func() error) (*Dist, error) {
	d, _, err := convolveAllOptCancel(ds, maxSupport, workers, strategy, probe)
	return d, err
}

// ConvolveAllExactWith is the retained reference reduction: the same
// canonical input order and Huffman merge plan as ConvolveAllWith, but
// every internal node is computed independently from its two children —
// no shift-class sharing, no in-tree budget coarsening — exactly the
// pre-monoid tree. When no coarsening binds anywhere it is
// byte-identical to ConvolveAllWith (the differential suite pins this);
// when the cap binds, both remain sound upper bounds that differ only
// by the documented in-tree area budget. It exists to validate the
// optimized path and costs O(len(ds)) convolutions regardless of input
// structure.
func ConvolveAllExactWith(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy) *Dist {
	d, err := ConvolveAllExactCancelWith(ds, maxSupport, workers, strategy, nil)
	if err != nil {
		panic("dist: ConvolveAllExactWith canceled without a probe: " + err.Error())
	}
	return d
}

// ConvolveAllExactCancelWith is ConvolveAllExactWith with a
// cancellation probe, under the same contract as ConvolveAllCancelWith:
// the probe is consulted once per merge node, the first non-nil error
// sticks and is returned, every node goroutine finishes before the
// call returns, and a nil probe costs nothing.
func ConvolveAllExactCancelWith(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy, probe func() error) (*Dist, error) {
	var abortMu sync.Mutex
	var abortErr error
	checkCancel := func() error {
		if probe == nil {
			return nil
		}
		abortMu.Lock()
		defer abortMu.Unlock()
		if abortErr == nil {
			abortErr = probe()
		}
		return abortErr
	}
	if err := checkCancel(); err != nil {
		return nil, err
	}
	if len(ds) == 0 {
		return Degenerate(0), nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(ds) == 1 {
		return ds[0].CoarsenToWith(maxSupport, strategy), nil
	}
	n := len(ds)
	sorted := canonicalSort(ds)
	plan := buildMergePlan(sorted, maxSupport)
	results := make([]*Dist, 2*n-1)
	copy(results, sorted)

	if workers <= 1 {
		// The plan lists nodes in dependency order (children always
		// precede parents): execute it sequentially.
		for k, st := range plan {
			if err := checkCancel(); err != nil {
				return nil, err
			}
			results[n+k] = results[st.l].Convolve(results[st.r]).CoarsenToWith(maxSupport, strategy)
		}
		return results[2*n-2], nil
	}

	// Dependency-driven parallel execution: one goroutine per internal
	// node waits for its children, takes a worker slot, computes, and
	// publishes. Results are pure functions of the children, so
	// scheduling cannot influence any atom.
	done := make([]chan struct{}, 2*n-1)
	closed := make(chan struct{})
	close(closed)
	for i := 0; i < n; i++ {
		done[i] = closed
	}
	for k := range plan {
		done[n+k] = make(chan struct{})
	}
	sem := make(chan struct{}, workers)
	for k, st := range plan {
		go func(id int, st mergeStep) {
			<-done[st.l]
			<-done[st.r]
			sem <- struct{}{}
			// The node's split convolution draws any extra parallelism
			// from the same semaphore (its own slot counts as one), so
			// concurrent big merges can never oversubscribe the pool
			// to workers^2 goroutines. On cancellation the node is
			// skipped (its result stays nil — parents skip too) but its
			// done still closes, so no goroutine outlives the call.
			if checkCancel() == nil {
				results[id] = convolveWorkersSem(results[st.l], results[st.r], workers, sem).CoarsenToWith(maxSupport, strategy)
			}
			<-sem
			close(done[id])
		}(n+k, st)
	}
	<-done[2*n-2]
	if err := checkCancel(); err != nil {
		return nil, err
	}
	return results[2*n-2], nil
}

// parallelFor runs body(chunk) for every chunk in [0, chunks) on the
// calling goroutine plus up to workers-1 helpers, then waits for
// completion. When sem is non-nil each helper must win a slot from it
// non-blockingly — the caller participates unconditionally (its slot
// is already accounted for), so progress never deadlocks on a full
// semaphore and total concurrency stays bounded by the semaphore's
// capacity. Which goroutine executes which chunk can never influence
// the result: chunks write disjoint state.
func parallelFor(chunks, workers int, sem chan struct{}, body func(chunk int)) {
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			body(c)
		}
		return
	}
	var next atomic.Int64
	runner := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			body(c)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		if sem != nil {
			acquired := false
			select {
			case sem <- struct{}{}:
				acquired = true
			default:
			}
			if !acquired {
				break // pool saturated: the caller works alone from here
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner()
			if sem != nil {
				<-sem
			}
		}()
	}
	runner()
	wg.Wait()
}
