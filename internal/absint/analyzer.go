package absint

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/program"
)

// Analyzer runs the cache analyses of one program against one cache
// configuration. It precomputes the reference lists, a reverse
// post-order of the CFG and a per-set reference index (see index.go);
// individual sets can then be classified at any effective
// associativity up to Ways, which the Fault Miss Map uses to model
// sets with f faulty ways. An Analyzer is safe for concurrent use.
//
// One fixpoint per set on the compact domain of domain_compact.go
// serves every associativity (fillLevels). NewReference and
// NewDataReference retain the map-based domain (domain.go), one
// fixpoint per associativity, as the reference the compact path is
// tested against.
type Analyzer struct {
	p          *program.Program
	cfg        cache.Config
	perBB      [][]Ref
	all        []Ref
	rpo        []int
	sets       []setIndex
	ref        bool
	levelBytes atomic.Int64 // bytes of the filled setIndex.levels
}

// New builds an analyzer of the program's instruction fetches against
// the (instruction) cache configuration.
func New(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, false, false)
}

// NewData builds an analyzer of the program's data accesses against a
// data-cache configuration. The abstract domains, fixpoints and
// classifications are identical — only the reference stream differs —
// which is precisely why the paper expects its technique to "transpose
// to data caches" (Section VI). Stores are analyzed as write-allocate
// accesses.
func NewData(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, true, false)
}

// NewReference is New with the retained map-based abstract domain: the
// executable specification the compact hot path is validated against.
// Classifications are identical (asserted by the differential tests);
// only the constant factors differ.
func NewReference(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, false, true)
}

// NewDataReference is NewData on the retained map-based domain.
func NewDataReference(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, true, true)
}

func newAnalyzer(p *program.Program, cfg cache.Config, data, ref bool) *Analyzer {
	var perBB [][]Ref
	var all []Ref
	if data {
		perBB, all = ComputeDataRefs(p, cfg)
	} else {
		perBB, all = ComputeRefs(p, cfg)
	}
	rpo := reversePostOrder(p)
	return &Analyzer{
		p:     p,
		cfg:   cfg,
		perBB: perBB,
		all:   all,
		rpo:   rpo,
		sets:  buildSetIndexes(p, cfg.Sets, perBB, all, rpo),
		ref:   ref,
	}
}

// Refs returns all references in global order.
func (a *Analyzer) Refs() []Ref { return a.all }

// RefsOf returns the references of one basic block in fetch order.
func (a *Analyzer) RefsOf(bb int) []Ref { return a.perBB[bb] }

// RefsOfSet returns the references mapping to one cache set, in global
// order — the per-set index the FMM hot path iterates instead of
// filtering Refs() by set on every (set, fault-count) pair.
func (a *Analyzer) RefsOfSet(set int) []Ref { return a.sets[set].refs }

// Config returns the cache configuration being analyzed.
func (a *Analyzer) Config() cache.Config { return a.cfg }

// Program returns the program being analyzed.
func (a *Analyzer) Program() *program.Program { return a.p }

// ClassifyAll classifies every reference at full associativity (the
// fault-free cache). The result is indexed by Ref.Global.
func (a *Analyzer) ClassifyAll() []chmc.Class {
	out := make([]chmc.Class, len(a.all))
	for i := range out {
		out[i] = chmc.NotClassified
	}
	for s := 0; s < a.cfg.Sets; s++ {
		a.classifySetInto(out, s, a.cfg.Ways)
	}
	return out
}

// ClassifySet classifies the references mapping to one cache set at the
// given effective associativity (W - f for f faulty ways), 0 <= assoc
// <= Ways. Entries for references of other sets are NotClassified and
// must be ignored by the caller. assoc == 0 yields AlwaysMiss for every
// reference of the set.
func (a *Analyzer) ClassifySet(set, assoc int) []chmc.Class {
	out := make([]chmc.Class, len(a.all))
	for i := range out {
		out[i] = chmc.NotClassified
	}
	a.classifySetInto(out, set, assoc)
	return out
}

// ClassifySetInto is ClassifySet writing into a caller-provided buffer
// of len(Refs()) entries: every entry belonging to a reference of the
// set is (re)written — NotClassified included — while entries of other
// sets are left untouched. Reusing one buffer across the W fault
// counts of a set (and across sets) is what keeps the FMM's S*W
// classifications allocation-free; the caller must only ever read
// the entries of the set it just classified.
func (a *Analyzer) ClassifySetInto(out []chmc.Class, set, assoc int) {
	for _, r := range a.sets[set].refs {
		out[r.Global] = chmc.NotClassified
	}
	a.classifySetInto(out, set, assoc)
}

// classifySetInto dispatches one set's classification to the compact
// hot path or the retained reference domain. Both write the refs of the
// set that sit in entry-reachable blocks; callers prefill the rest.
func (a *Analyzer) classifySetInto(out []chmc.Class, set, assoc int) {
	if a.ref {
		a.classifySetIntoReference(out, set, assoc)
		return
	}
	ix := &a.sets[set]
	if assoc <= 0 {
		for _, r := range ix.refs {
			out[r.Global] = chmc.AlwaysMiss
		}
		return
	}
	ix.once.Do(func() { a.fillLevels(ix) })
	for _, l := range ix.levels {
		out[l.global] = l.class(assoc)
	}
}

// fillLevels runs the set's one fixpoint, at full associativity W, and
// records the level of every reference of the set in reachable code.
// It serves every A <= W: under LRU the A-way state is the image of the
// W-way one under the map that drops Must/May entries of age >= A and
// saturates younger sets of size >= A, a map that keeps the bottom and
// entry states and commutes with join and access (ages and set sizes
// only grow), so the A-way fixpoint is the image of the W-way one.
func (a *Analyzer) fillLevels(ix *setIndex) {
	if len(ix.refs) == 0 {
		return
	}
	assoc := a.cfg.Ways
	outStates := a.fixpointCompact(ix, assoc)

	// Classification sweep: only blocks holding references of this set
	// matter, and the groups list them in reverse post-order already.
	ix.levels = make([]refLevel, 0, len(ix.refs))
	for gi := range ix.groups {
		g := &ix.groups[gi]
		in := a.inStateCompact(outStates, int(g.bb), assoc, ix)
		for _, lr := range g.refs {
			ix.levels = append(ix.levels, in.level(lr.global, lr.local))
			if in.reached {
				in.access(lr.local, assoc)
			}
		}
		ix.pool.Put(in)
	}
	for _, st := range outStates {
		if st != nil {
			ix.pool.Put(st)
		}
	}
	a.levelBytes.Add(int64(cap(ix.levels)) * int64(unsafe.Sizeof(refLevel{})))
}

// fixpointCompact iterates the three analyses for one set to a fixpoint
// on the compact domain and returns the OUT state of every block. The
// caller owns the returned states (they come from the set's pool).
func (a *Analyzer) fixpointCompact(ix *setIndex, assoc int) []*cstate {
	outStates := make([]*cstate, len(a.p.Blocks))
	for changed := true; changed; {
		changed = false
		gi := 0
		for pos, bb := range a.rpo {
			st := a.inStateCompact(outStates, bb, assoc, ix)
			var g *refGroup
			for gi < len(ix.groups) && int(ix.groups[gi].rpoPos) < pos {
				gi++
			}
			if gi < len(ix.groups) && int(ix.groups[gi].rpoPos) == pos {
				g = &ix.groups[gi]
				gi++
			}
			if st.reached && g != nil {
				for _, lr := range g.refs {
					st.access(lr.local, assoc)
				}
			}
			if outStates[bb] == nil || !outStates[bb].equal(st) {
				if outStates[bb] != nil {
					ix.pool.Put(outStates[bb])
				}
				outStates[bb] = st
				changed = true
			} else {
				ix.pool.Put(st)
			}
		}
	}
	return outStates
}

// inStateCompact joins the predecessors' OUT states into a pooled state
// (the entry block starts from the reached empty cache).
func (a *Analyzer) inStateCompact(outStates []*cstate, bb, assoc int, ix *setIndex) *cstate {
	in := ix.pool.Get().(*cstate)
	in.reset()
	if bb == a.p.Entry {
		in.reached = true
	}
	for _, pr := range a.p.Blocks[bb].Preds {
		if o := outStates[pr]; o != nil {
			in.join(o, assoc)
		}
	}
	return in
}

// classifySetIntoReference is the retained map-based classification
// path (the pre-index implementation, verbatim).
func (a *Analyzer) classifySetIntoReference(out []chmc.Class, set, assoc int) {
	if assoc <= 0 {
		for _, r := range a.all {
			if r.Set == set {
				out[r.Global] = chmc.AlwaysMiss
			}
		}
		return
	}

	outStates := a.fixpoint(set, assoc)

	for _, bb := range a.rpo {
		in := a.inState(outStates, bb, assoc)
		if !in.reached {
			// Unreachable code never executes; AlwaysMiss is the
			// conservative (and irrelevant) classification.
			for _, r := range a.perBB[bb] {
				if r.Set == set {
					out[r.Global] = chmc.AlwaysMiss
				}
			}
			continue
		}
		for _, r := range a.perBB[bb] {
			if r.Set != set {
				continue
			}
			out[r.Global] = classify(in, r.Block, assoc)
			in.access(r.Block, assoc)
		}
	}
}

// classify derives the CHMC of an access to block m from the pre-state.
func classify(st *setState, m uint32, assoc int) chmc.Class {
	if _, ok := st.must[m]; ok {
		return chmc.AlwaysHit
	}
	y, everLoaded := st.pers[m]
	if !everLoaded {
		// No path has loaded m before this point, so the reference
		// executes at most once per run: at most one miss.
		return chmc.FirstMiss
	}
	if !y.sat {
		return chmc.FirstMiss
	}
	if _, ok := st.may[m]; !ok {
		return chmc.AlwaysMiss
	}
	return chmc.NotClassified
}

// fixpoint iterates the three analyses for one set to a fixpoint on the
// reference domain and returns the OUT state of every block.
func (a *Analyzer) fixpoint(set, assoc int) []*setState {
	outStates := make([]*setState, len(a.p.Blocks))
	for changed := true; changed; {
		changed = false
		for _, bb := range a.rpo {
			st := a.inState(outStates, bb, assoc)
			if st.reached {
				for _, r := range a.perBB[bb] {
					if r.Set == set {
						st.access(r.Block, assoc)
					}
				}
			}
			if outStates[bb] == nil || !outStates[bb].equal(st) {
				outStates[bb] = st
				changed = true
			}
		}
	}
	return outStates
}

// inState joins the predecessors' OUT states (the entry block starts from
// the reached empty cache).
func (a *Analyzer) inState(outStates []*setState, bb, assoc int) *setState {
	in := newSetState()
	if bb == a.p.Entry {
		in.reached = true
	}
	for _, pr := range a.p.Blocks[bb].Preds {
		if outStates[pr] != nil {
			in.join(outStates[pr], assoc)
		}
	}
	return in
}

// reversePostOrder returns the CFG blocks in reverse post-order from the
// entry, which makes the fixpoint sweeps converge in few passes.
func reversePostOrder(p *program.Program) []int {
	visited := make([]bool, len(p.Blocks))
	var post []int
	// Iterative DFS with an explicit stack to avoid recursion limits.
	type frame struct {
		node int
		next int
	}
	var stack []frame
	push := func(n int) {
		visited[n] = true
		stack = append(stack, frame{node: n})
	}
	push(p.Entry)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := p.Blocks[f.node].Succs
		if f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if !visited[s] {
				push(s)
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, len(post))
	for i, n := range post {
		rpo[len(post)-1-i] = n
	}
	return rpo
}
