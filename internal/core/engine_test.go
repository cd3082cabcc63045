package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/progen"
	"repro/internal/program"
)

// sweepPfails is the 10-point pfail sweep of the acceptance criterion:
// the whole resilience-roadmap range the faultsweep example covers.
var sweepPfails = []float64{6.1e-13, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 2.6e-4, 5e-4, 1e-3}

// requireDeepEqualResult asserts every field of two results is
// byte-identical, including the echoed options, fault models, FMMs and
// every distribution atom. reflect.DeepEqual covers fields
// requireSameResult does not (Model, Options, HitRefs...).
func requireDeepEqualResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	requireSameResult(t, label, ref, got)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: engine result differs from one-shot Analyze beyond the distribution fields:\nref: %+v\ngot: %+v", label, ref, got)
	}
}

// TestEnginePfailSweepByteIdentical is the acceptance criterion of the
// session redesign: an AnalyzeBatch over a 10-point pfail sweep on the
// paper cache returns results byte-identical to 10 independent one-shot
// Analyze calls, for every mechanism.
func TestEnginePfailSweepByteIdentical(t *testing.T) {
	p := buildLoop(t)
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		e, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]Query, len(sweepPfails))
		for i, pf := range sweepPfails {
			queries[i] = Query{Pfail: pf, Mechanism: mech}
		}
		batch, err := e.AnalyzeBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, pf := range sweepPfails {
			solo, err := Analyze(p, Options{Pfail: pf, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			requireDeepEqualResult(t, fmt.Sprintf("%v pfail=%g", mech, pf), solo, batch[i])
		}
	}
}

// TestEngineMatchesAnalyzeOnRandomPrograms sweeps random programs,
// mechanisms and targets through one engine per program and compares
// every result against a fresh one-shot Analyze.
func TestEngineMatchesAnalyzeOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := progen.Random(rand.New(rand.NewSource(900+seed)), progen.DefaultParams())
		e, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			for _, target := range []float64{1e-9, 1e-15} {
				q := Query{
					Cache:            testOptions(mech).Cache,
					Pfail:            1e-3,
					Mechanism:        mech,
					TargetExceedance: target,
				}
				got, err := e.Analyze(q)
				if err != nil {
					t.Fatal(err)
				}
				solo, err := Analyze(p, q.options(0))
				if err != nil {
					t.Fatal(err)
				}
				requireDeepEqualResult(t, fmt.Sprintf("seed %d %v target %g", seed, mech, target), solo, got)
			}
		}
	}
}

// TestEngineCacheSweepByteIdentical varies the cache geometry across
// queries of one engine (the cachesweep example's workload) and checks
// per-cache memoization does not change any result.
func TestEngineCacheSweepByteIdentical(t *testing.T) {
	p := progen.Random(rand.New(rand.NewSource(42)), progen.DefaultParams())
	e, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	geoms := []cache.Config{
		{Sets: 8, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		{Sets: 4, Ways: 4, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		{Sets: 4, Ways: 2, BlockBytes: 16, HitLatency: 1, MemLatency: 10},
	}
	var queries []Query
	for _, g := range geoms {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			queries = append(queries, Query{Cache: g, Pfail: 1e-3, Mechanism: mech})
		}
	}
	batch, err := e.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		solo, err := Analyze(p, q.options(0))
		if err != nil {
			t.Fatal(err)
		}
		requireDeepEqualResult(t, fmt.Sprintf("query %d (%+v)", i, q.Cache), solo, batch[i])
	}
}

// TestEnginePreciseSRBAndDataCache covers the two specialized analysis
// paths through the engine: the precise SRB mixture bound and the
// combined instruction+data analysis.
func TestEnginePreciseSRBAndDataCache(t *testing.T) {
	p := buildLoop(t)
	e, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	prec := Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB, PreciseSRB: true}
	got, err := e.Analyze(prec)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Analyze(p, prec.options(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.PenaltyPrecise == nil || solo.PenaltyPrecise == nil {
		t.Fatal("precise SRB analysis did not run")
	}
	requireDeepEqualResult(t, "precise srb", solo, got)

	// PreciseSRB on a non-SRB mechanism is ignored, like in Analyze.
	rw := Query{Pfail: 1e-4, Mechanism: cache.MechanismRW, PreciseSRB: true}
	if r, err := e.Analyze(rw); err != nil || r.PenaltyPrecise != nil {
		t.Fatalf("RW+PreciseSRB: err %v, PenaltyPrecise %v", err, r.PenaltyPrecise)
	}

	dcfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	dp := program.New("data")
	fb := dp.Func("main")
	fb.Loop(20, func(l *program.Body) { l.Ops(4).Load(0x1000).Store(0x1010) })
	prog := dp.MustBuild()
	de, err := NewEngine(prog, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB} {
		q := Query{Pfail: 1e-3, Mechanism: mech, DataCache: &dcfg}
		got, err := de.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Analyze(prog, q.options(0))
		if err != nil {
			t.Fatal(err)
		}
		requireDeepEqualResult(t, "data cache "+mech.String(), solo, got)
		if got.DataFMM == nil {
			t.Fatal("data FMM missing")
		}
	}

	if _, err := de.Analyze(Query{Pfail: 1e-3, Mechanism: cache.MechanismSRB, PreciseSRB: true, DataCache: &dcfg}); err == nil {
		t.Error("engine accepted PreciseSRB together with a data cache")
	}
}

// countingHook tallies artifact computations, keyed by a readable
// label, under a lock (the hook contract allows concurrent calls).
type countingHook struct {
	mu     sync.Mutex
	counts map[string]int
}

func (h *countingHook) hook(ev ArtifactEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make(map[string]int)
	}
	key := fmt.Sprintf("%v/sets=%d,ways=%d/data=%v", ev.Artifact, ev.Cache.Sets, ev.Cache.Ways, ev.Data)
	if ev.Artifact == ArtifactFMMColumn {
		key += fmt.Sprintf("/mech=%v,precise=%v", ev.Mechanism, ev.Precise)
	}
	h.counts[key]++
}

func (h *countingHook) snapshot() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int, len(h.counts))
	for k, v := range h.counts {
		out[k] = v
	}
	return out
}

// TestEngineMemoizesExpensiveStages asserts, via the counting hook,
// that a pfail sweep on one engine computes the fixpoints, the WCET and
// the FMM artifacts exactly once per (cache, mechanism) — while the
// results stay byte-identical to fresh Analyze calls (the sweep test
// above). This is the sharing the session API exists for.
func TestEngineMemoizesExpensiveStages(t *testing.T) {
	p := buildLoop(t)
	h := &countingHook{}
	e, err := NewEngine(p, EngineOptions{Hook: h.hook})
	if err != nil {
		t.Fatal(err)
	}

	// 10 pfail points x 3 mechanisms = 30 queries, one cache config.
	var queries []Query
	for _, pf := range sweepPfails {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			queries = append(queries, Query{Pfail: pf, Mechanism: mech})
		}
	}
	if _, err := e.AnalyzeBatch(queries); err != nil {
		t.Fatal(err)
	}

	want := map[string]int{
		"classification/sets=16,ways=4/data=false":                     1,
		"srb-classification/sets=16,ways=4/data=false":                 1,
		"wcet/sets=16,ways=4/data=false":                               1,
		"fmm-core/sets=16,ways=4/data=false":                           1,
		"fmm-column/sets=16,ways=4/data=false/mech=none,precise=false": 1,
		"fmm-column/sets=16,ways=4/data=false/mech=srb,precise=false":  1,
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("artifact computation counts:\n got %v\nwant %v", got, want)
	}

	// Re-running the same sweep must not compute anything new.
	if _, err := e.AnalyzeBatch(queries); err != nil {
		t.Fatal(err)
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("second identical sweep recomputed artifacts:\n got %v\nwant %v", got, want)
	}
}

// TestEngineBatchStreaming checks the streaming contract: every index
// delivered exactly once, deliver never called concurrently, and
// per-index content matches the ordered batch.
func TestEngineBatchStreaming(t *testing.T) {
	p := buildLoop(t)
	e, err := NewEngine(p, EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, pf := range sweepPfails {
		queries = append(queries, Query{Pfail: pf, Mechanism: cache.MechanismSRB})
	}

	ordered, err := e.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[int]int)
	inFlight := 0
	e.AnalyzeBatchStreamContext(context.Background(), queries, func(r BatchResult) {
		inFlight++
		if inFlight != 1 {
			t.Error("deliver called concurrently")
		}
		if r.Err != nil {
			t.Errorf("query %d failed: %v", r.Index, r.Err)
		}
		if r.Query != queries[r.Index] {
			t.Errorf("query %d echoed %+v", r.Index, r.Query)
		}
		if r.Result.PWCET != ordered[r.Index].PWCET {
			t.Errorf("query %d: streamed pWCET %d != batch %d", r.Index, r.Result.PWCET, ordered[r.Index].PWCET)
		}
		seen[r.Index]++
		inFlight--
	})
	for i := range queries {
		if seen[i] != 1 {
			t.Errorf("index %d delivered %d times", i, seen[i])
		}
	}
}

// TestEngineBatchWorkersEquivalence runs the same mixed batch at
// several worker counts; every result must be byte-identical (and the
// -race run exercises the memoization layer's locking).
func TestEngineBatchWorkersEquivalence(t *testing.T) {
	p := progen.Random(rand.New(rand.NewSource(1234)), progen.DefaultParams())
	var queries []Query
	for _, pf := range []float64{1e-5, 1e-4, 1e-3} {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			queries = append(queries, Query{Cache: testOptions(mech).Cache, Pfail: pf, Mechanism: mech})
		}
	}
	refEngine, err := NewEngine(p, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refEngine.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		e, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AnalyzeBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			requireSameResult(t, fmt.Sprintf("workers=%d query %d", workers, i), ref[i], got[i])
		}
	}
}

// TestEngineErrors covers validation and batch error propagation.
func TestEngineErrors(t *testing.T) {
	p := buildLoop(t)
	if _, err := NewEngine(p, EngineOptions{Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
	e, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Query{Pfail: 2}); err == nil {
		t.Error("pfail=2 accepted")
	}
	if _, err := e.Analyze(Query{Pfail: 1e-4, TargetExceedance: 1.5}); err == nil {
		t.Error("target 1.5 accepted")
	}
	if _, err := e.Analyze(Query{Pfail: 1e-4, MaxSupport: 1}); err == nil {
		t.Error("MaxSupport 1 accepted")
	}
	bad := Query{Cache: cache.Config{Sets: 3, Ways: 1, BlockBytes: 8, HitLatency: 1, MemLatency: 1}}
	if _, err := e.Analyze(bad); err == nil {
		t.Error("invalid cache accepted")
	}

	// A batch with one failing query returns the lowest-index error and
	// still computes nothing-shared queries deterministically.
	queries := []Query{
		{Pfail: 1e-4},
		{Pfail: 3}, // invalid
		{Pfail: 5}, // invalid, higher index
	}
	if _, err := e.AnalyzeBatch(queries); err == nil {
		t.Error("batch with invalid query succeeded")
	}
	var failures []int
	e.AnalyzeBatchStreamContext(context.Background(), queries, func(r BatchResult) {
		if r.Err != nil {
			failures = append(failures, r.Index)
		}
	})
	if len(failures) != 2 {
		t.Errorf("streamed failures %v, want indices 1 and 2", failures)
	}
}
