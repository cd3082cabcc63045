package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/fault"
)

// penaltyTargets are the three exceedance targets of the penalty
// sharing tests: every one of them reads the same permanent penalty.
var penaltyTargets = []float64{1e-9, 1e-12, 1e-15}

// TestEnginePenaltySharedAcrossTargetsAndLambdas pins the sharing the
// penalty artifact exists for: Permanent{p} and Combined{p, λ} at three
// lambdas, each at three targets, compute exactly one permanent penalty
// per (mechanism, pfail), and pure Transient queries compute none. Every
// result stays byte-identical to a one-shot Analyze.
func TestEnginePenaltySharedAcrossTargetsAndLambdas(t *testing.T) {
	p := buildLoop(t)
	const pfail = 1e-4
	lambdas := []float64{1e-12, 1e-10, 1e-9}
	mechs := []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB}
	var permanent, transient []Query
	for _, mech := range mechs {
		for _, target := range penaltyTargets {
			permanent = append(permanent, Query{Pfail: pfail, Mechanism: mech, TargetExceedance: target})
			for _, la := range lambdas {
				permanent = append(permanent, Query{Scenario: fault.Combined{Pfail: pfail, Lambda: la}, Mechanism: mech, TargetExceedance: target})
				transient = append(transient, Query{Scenario: fault.Transient{Lambda: la}, Mechanism: mech, TargetExceedance: target})
			}
		}
	}

	h := &countingHook{}
	e, err := NewEngine(p, EngineOptions{Hook: h.hook})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalyzeBatch(transient); err != nil {
		t.Fatal(err)
	}
	for k := range h.snapshot() {
		if strings.HasPrefix(k, "penalty/") {
			t.Errorf("a transient-only batch computed %s", k)
		}
	}
	got, err := e.AnalyzeBatch(permanent)
	if err != nil {
		t.Fatal(err)
	}
	counts := h.snapshot()
	for _, mech := range mechs {
		key := fmt.Sprintf("penalty/sets=16,ways=4/data=false/mech=%v", mech)
		if counts[key] != 1 {
			t.Errorf("%s computed %d times over %d targets x (1 + %d lambdas), want 1",
				key, counts[key], len(penaltyTargets), len(lambdas))
		}
	}
	for i, q := range permanent {
		want, err := Analyze(p, q.options(0))
		if err != nil {
			t.Fatal(err)
		}
		requireDeepEqualResult(t, fmt.Sprintf("query %d %+v", i, q), want, got[i])
	}
}

// TestEnginePenaltyMatchesOneShot compares engine batches with one
// query per fresh engine by reflect.DeepEqual at Workers 1 and 4, on
// the default, ExactConvolve and reference engines, over queries that share
// penalties (targets) and queries whose keys differ only in the data
// cache, the coarsening strategy or the support cap, with and without
// the precise SRB stage on top.
func TestEnginePenaltyMatchesOneShot(t *testing.T) {
	p := buildDataProgram()
	dcfg := dcacheConfig()
	var queries []Query
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		for _, target := range penaltyTargets[:2] {
			queries = append(queries,
				Query{Pfail: 1e-3, Mechanism: mech, TargetExceedance: target},
				Query{Pfail: 1e-3, Mechanism: mech, TargetExceedance: target, DataCache: &dcfg},
				Query{Pfail: 1e-3, Mechanism: mech, TargetExceedance: target, MaxSupport: 4},
				Query{Scenario: fault.Combined{Pfail: 1e-3, Lambda: 1e-9}, Mechanism: mech, TargetExceedance: target},
			)
		}
	}
	queries = append(queries,
		Query{Pfail: 1e-3, Mechanism: cache.MechanismSRB, PreciseSRB: true},
		Query{Pfail: 1e-3, Mechanism: cache.MechanismSRB, PreciseSRB: true, TargetExceedance: 1e-9},
		Query{Pfail: 1e-3, MaxSupport: 4, Coarsen: dist.CoarsenKeepHeaviest},
	)
	for _, eo := range []struct {
		name      string
		opt       EngineOptions
		reference bool
	}{
		{"default", EngineOptions{}, false},
		{"exact-convolve", EngineOptions{ExactConvolve: true}, false},
		{"reference", EngineOptions{}, true},
	} {
		for _, workers := range []int{1, 4} {
			opt := eo.opt
			opt.Workers = workers
			e, err := newEngine(p, opt, eo.reference)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.AnalyzeBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				oneShot, err := newEngine(p, opt, eo.reference)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oneShot.Analyze(q)
				if err != nil {
					t.Fatal(err)
				}
				requireDeepEqualResult(t, fmt.Sprintf("%s workers=%d query %d %+v", eo.name, workers, i, q), want, got[i])
			}
		}
	}
}

// TestEnginePenaltyEvictionByteIdentical runs a target sweep under a
// 1-byte budget: every penalty is evicted as soon as its query has read
// it and recomputed by the next query that needs it, byte-identically
// to the unbounded engine.
func TestEnginePenaltyEvictionByteIdentical(t *testing.T) {
	p := buildLoop(t)
	var queries []Query
	for _, target := range penaltyTargets {
		queries = append(queries, Query{Pfail: 1e-3, Mechanism: cache.MechanismSRB, TargetExceedance: target})
	}
	unbounded, err := NewEngine(p, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := unbounded.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHook{}
	bounded, err := NewEngine(p, EngineOptions{MaxArtifactBytes: 1, Hook: h.hook, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, err := bounded.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		requireDeepEqualResult(t, fmt.Sprintf("query %d", i), ref[i], got)
	}
	if n := h.snapshot()["penalty/sets=16,ways=4/data=false/mech=srb"]; n != len(queries) {
		t.Errorf("penalty computed %d times under a 1-byte budget, want %d (one per query)", n, len(queries))
	}
	if ms := bounded.MemStats(); ms.ArtifactBytes != 0 || ms.Evictions == 0 {
		t.Errorf("1-byte budget: resident %d (want 0), evictions %d (want > 0)", ms.ArtifactBytes, ms.Evictions)
	}
}

// TestEnginePenaltyDegradedAttempt: a soft deadline that expires just
// before the penalty reduction starts drops the attempt's penalty cell
// instead of memoizing the failure. The degraded retry fills the
// penalty of its own, tighter cap; a later exact query computes the
// default-cap penalty afresh, and both results match one-shot Analyze
// at their cap.
func TestEnginePenaltyDegradedAttempt(t *testing.T) {
	p := buildLoop(t)
	const soft = 200 * time.Millisecond
	var mu sync.Mutex
	stalled := false
	h := &countingHook{}
	// Workers 1 keeps every Hook call on the querying goroutine, so the
	// stall below lands inside the first attempt, between its FMM
	// column and its penalty reduction.
	e, err := NewEngine(p, EngineOptions{Workers: 1, Hook: func(ev ArtifactEvent) {
		h.hook(ev)
		mu.Lock()
		stall := !stalled && ev.Artifact == ArtifactFMMColumn
		stalled = stalled || stall
		mu.Unlock()
		if stall {
			time.Sleep(soft + soft/2)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Pfail: 1e-3, Mechanism: cache.MechanismNone, SoftDeadline: soft}
	degraded, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded || degraded.Options.MaxSupport >= DefaultMaxSupport {
		t.Fatalf("stalled first attempt: Degraded %v at cap %d, want a degraded retry below %d",
			degraded.Degraded, degraded.Options.MaxSupport, DefaultMaxSupport)
	}
	const key = "penalty/sets=16,ways=4/data=false/mech=none"
	if n := h.snapshot()[key]; n != 1 {
		t.Fatalf("penalty computed %d times, want 1 (the expired attempt must not fill it)", n)
	}
	want, err := Analyze(p, Options{Pfail: 1e-3, Mechanism: cache.MechanismNone, MaxSupport: degraded.Options.MaxSupport, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	degraded.Degraded = false
	requireDeepEqualResult(t, "degraded attempt", want, degraded)

	q.SoftDeadline = 0
	exact, err := e.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := h.snapshot()[key]; n != 2 {
		t.Fatalf("penalty computed %d times after the exact query, want 2", n)
	}
	want, err = Analyze(p, Options{Pfail: 1e-3, Mechanism: cache.MechanismNone, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqualResult(t, "exact after degraded", want, exact)
	if ms := e.MemStats(); ms.PinnedBytes != 0 {
		t.Errorf("pins left behind: %+v", ms)
	}
}

// TestPerSetPenaltiesInternRows: sets with equal FMM rows share one
// per-set distribution, sets with different rows never do.
func TestPerSetPenaltiesInternRows(t *testing.T) {
	res, err := Analyze(buildLoop(t), Options{Pfail: 1e-3, Mechanism: cache.MechanismNone})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[*dist.Dist]string{}
	for s, d := range res.PerSet {
		row := fmt.Sprint(res.FMM[s])
		if prev, ok := rows[d]; ok && prev != row {
			t.Fatalf("set %d shares its distribution with a set of row %s, its own row is %s", s, prev, row)
		}
		rows[d] = row
	}
	distinct := map[string]bool{}
	for _, row := range res.FMM {
		distinct[fmt.Sprint(row)] = true
	}
	if len(rows) != len(distinct) {
		t.Errorf("%d per-set distributions for %d distinct FMM rows", len(rows), len(distinct))
	}
}
