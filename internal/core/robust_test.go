package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/malardalen"
)

// waitGoroutines polls until the goroutine count drops back to at most
// baseline (plus the runtime's own background slack), failing after a
// generous deadline. Cancellation must leave no worker behind.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finished goroutines through exit
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationPromptAndLeakFree is the acceptance criterion of the
// robustness issue: canceling a 256-set batch mid-flight returns
// ctx.Err() within 100ms, every worker goroutine winds down, and the
// engine's LRU holds zero query-pinned bytes afterwards. Exercised at
// workers 1 (serial path) and 4 (pool path).
func TestCancellationPromptAndLeakFree(t *testing.T) {
	cfg := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}
	p := build256SetProgram(t)

	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		eng, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]Query, len(sweepPfails))
		for i, pf := range sweepPfails {
			queries[i] = Query{Cache: cfg, Pfail: pf, Mechanism: cache.MechanismSRB}
		}

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := eng.AnalyzeBatchContext(ctx, queries)
			done <- err
		}()
		time.Sleep(5 * time.Millisecond) // let the batch get into the pipeline
		canceledAt := time.Now()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: batch error = %v, want context.Canceled", workers, err)
			}
			if took := time.Since(canceledAt); took > 100*time.Millisecond {
				t.Errorf("workers=%d: cancellation took %v, want < 100ms", workers, took)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: canceled batch never returned", workers)
		}

		waitGoroutines(t, baseline)
		if ms := eng.MemStats(); ms.PinnedBytes != 0 || ms.PinnedArtifacts != 0 {
			t.Errorf("workers=%d: canceled batch left pins behind: %+v", workers, ms)
		}

		// The engine must still be fully usable: a clean run afterwards
		// matches a fresh engine byte for byte (cancellation never
		// poisons memo entries).
		got, err := eng.Analyze(queries[0])
		if err != nil {
			t.Fatalf("workers=%d: post-cancel Analyze: %v", workers, err)
		}
		fresh, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Analyze(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "post-cancel", want, got)
	}
}

// TestPreCanceledContext: an already-dead context fails before any
// computation starts.
func TestPreCanceledContext(t *testing.T) {
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AnalyzeContext(ctx, Query{Pfail: 1e-4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeContext on dead ctx = %v, want context.Canceled", err)
	}
	if ms := eng.MemStats(); ms.Misses != 0 {
		t.Fatalf("dead ctx still triggered %d artifact computations", ms.Misses)
	}
}

// TestLegacySignaturesAreBackgroundWrappers: the context-free API is
// byte-identical to AnalyzeContext(context.Background(), ...).
func TestLegacySignaturesAreBackgroundWrappers(t *testing.T) {
	p := buildLoop(t)
	a, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB}
	legacy, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := b.AnalyzeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqualResult(t, "legacy-vs-context", legacy, ctxed)
}

// TestDegradedModeSoundDominance pins the degraded-mode soundness
// contract: a query forced through the tightest support cap by an
// unmeetable soft deadline must (a) complete instead of timing out,
// (b) be flagged Degraded, and (c) upper-bound the exact result — the
// exact penalty distribution is stochastically dominated by the
// degraded one, and the degraded pWCET quantile is at or above the
// exact quantile.
func TestDegradedModeSoundDominance(t *testing.T) {
	p := build256SetProgram(t)
	cfg := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}

	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		q := Query{Cache: cfg, Pfail: 1e-3, Mechanism: mech}
		eng, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := eng.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Degraded {
			t.Fatalf("%v: exact run flagged degraded", mech)
		}

		q.SoftDeadline = time.Nanosecond // every timed attempt dies; the floor attempt completes
		deng, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		degraded, err := deng.Analyze(q)
		if err != nil {
			t.Fatalf("%v: degraded mode must complete, got %v", mech, err)
		}
		if !degraded.Degraded {
			t.Fatalf("%v: result not flagged Degraded under a 1ns soft deadline", mech)
		}
		if degraded.PWCET < exact.PWCET {
			t.Errorf("%v: degraded pWCET %d below exact %d — unsound", mech, degraded.PWCET, exact.PWCET)
		}
		if !exact.Penalty.DominatedBy(degraded.Penalty, 1e-12) {
			t.Errorf("%v: degraded penalty distribution does not dominate the exact one", mech)
		}
	}
}

// TestDegradedModeNoDeadlineIsExact: a generous soft deadline leaves
// the result byte-identical to the plain path, with Degraded false.
func TestDegradedModeNoDeadlineIsExact(t *testing.T) {
	p := buildLoop(t)
	q := Query{Pfail: 1e-4, Mechanism: cache.MechanismRW}
	a, _ := NewEngine(p, EngineOptions{})
	b, _ := NewEngine(p, EngineOptions{})
	exact, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	q.SoftDeadline = time.Hour
	relaxed, err := b.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Degraded {
		t.Fatal("unbinding soft deadline flagged the result degraded")
	}
	requireDeepEqualResult(t, "soft-deadline-unbinding", exact, relaxed)
}

// TestPanicPoisonsEngine: a panic anywhere inside an analysis is
// recovered into a *PanicError, the engine is poisoned (all further
// queries fail fast with ErrPoisoned), and no query pins are stranded.
func TestPanicPoisonsEngine(t *testing.T) {
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{
		Hook: func(ArtifactEvent) { panic("injected hook panic") },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Analyze(Query{Pfail: 1e-4})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Analyze after panic = %v, want *PanicError", err)
	}
	if pe.Value != "injected hook panic" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError carries %v / %d stack bytes", pe.Value, len(pe.Stack))
	}
	if !eng.Poisoned() {
		t.Fatal("engine not poisoned after a panicking query")
	}

	start := time.Now()
	_, err = eng.Analyze(Query{Pfail: 1e-3})
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second Analyze = %v, want ErrPoisoned", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("poisoned engine did not fail fast")
	}

	ms := eng.MemStats()
	if !ms.Poisoned {
		t.Error("MemStats does not report poisoning")
	}
	if ms.PinnedBytes != 0 || ms.PinnedArtifacts != 0 {
		t.Errorf("poisoning query stranded pins: %+v", ms)
	}
}

// TestBatchCancellationAcrossWorkers runs the cancel-mid-batch path
// under both scheduling modes repeatedly — fodder for the -race build
// to catch unsynchronized teardown.
func TestBatchCancellationAcrossWorkers(t *testing.T) {
	p := buildLoop(t)
	for _, workers := range []int{1, 4} {
		eng, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]Query, 6)
		for i := range queries {
			queries[i] = Query{Pfail: sweepPfails[i], Mechanism: cache.MechanismSRB}
		}
		for round := 0; round < 5; round++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(round)*500*time.Microsecond)
			_, err := eng.AnalyzeBatchContext(ctx, queries)
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d round=%d: unexpected error class %v", workers, round, err)
			}
			if ms := eng.MemStats(); ms.PinnedBytes != 0 {
				t.Fatalf("workers=%d round=%d: pins left: %+v", workers, round, ms)
			}
		}
		// Afterwards the engine still answers cleanly.
		if _, err := eng.Analyze(queries[0]); err != nil {
			t.Fatalf("workers=%d: engine unusable after cancel rounds: %v", workers, err)
		}
	}
}

// TestCancelBeforeEachArtifact pins the memo cancellation contract per
// artifact kind. The query is canceled from the Hook on the event just
// before the target artifact, so the target's own computation sees the
// dead context. The query must fail with context.Canceled and strand no
// pins; the cancellation must not be sticky (the next live query
// computes the target exactly once more); and that query must match a
// fresh engine byte for byte.
func TestCancelBeforeEachArtifact(t *testing.T) {
	p := buildLoop(t)
	transient := Query{Scenario: fault.Transient{Lambda: 1e-6}}
	cases := []struct {
		name       string
		on, target Artifact
		q          Query
	}{
		{"wcet", ArtifactClassification, ArtifactWCET, Query{Pfail: 1e-4, Mechanism: cache.MechanismRW}},
		{"fmm-core", ArtifactWCET, ArtifactFMMCore, Query{Pfail: 1e-4, Mechanism: cache.MechanismRW}},
		{"transient-bound", ArtifactWCET, ArtifactTransientBound, transient},
		{"fmm-column-none", ArtifactFMMCore, ArtifactFMMColumn, Query{Pfail: 1e-4, Mechanism: cache.MechanismNone}},
		{"fmm-column-srb", ArtifactFMMCore, ArtifactFMMColumn, Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB}},
		{"penalty", ArtifactFMMColumn, ArtifactPenalty, Query{Pfail: 1e-4, Mechanism: cache.MechanismNone}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Workers 1 keeps every Hook call on the querying goroutine.
			var cancel context.CancelFunc
			counts := make(map[Artifact]int)
			eng, err := NewEngine(p, EngineOptions{Workers: 1, Hook: func(ev ArtifactEvent) {
				counts[ev.Artifact]++
				if cancel != nil && ev.Artifact == tc.on {
					cancel()
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			ctx, c := context.WithCancel(context.Background())
			defer c()
			cancel = c
			if _, err := eng.AnalyzeContext(ctx, tc.q); !errors.Is(err, context.Canceled) {
				t.Fatalf("query canceled on %v = %v, want context.Canceled", tc.on, err)
			}
			cancel = nil
			if counts[tc.target] != 0 {
				t.Fatalf("%v computed %d times under a dead context", tc.target, counts[tc.target])
			}
			if ms := eng.MemStats(); ms.PinnedBytes != 0 {
				t.Fatalf("canceled query left pins behind: %+v", ms)
			}

			got, err := eng.AnalyzeContext(context.Background(), tc.q)
			if err != nil {
				t.Fatalf("live query after cancellation: %v", err)
			}
			if counts[tc.target] != 1 {
				t.Fatalf("live query computed %v %d times, want exactly 1 (cancellation was sticky?)", tc.target, counts[tc.target])
			}
			fresh, err := NewEngine(p, EngineOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Analyze(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			requireDeepEqualResult(t, tc.name, want, got)
		})
	}
}

// TestCancelPreciseSRBReduction: a PreciseSRB query whose context dies
// right after its precise f = W column still has the precise penalty
// reduction ahead of it. That reduction checks the query's
// cancellation at every merge node like the permanent one, so the
// query fails with context.Canceled, strands no pins, and leaves the
// engine answering the same query byte-identically to a fresh engine.
func TestCancelPreciseSRBReduction(t *testing.T) {
	p := malardalen.MustGet("crc")
	q := Query{
		Cache:      cache.Config{Sets: 256, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100},
		Pfail:      1e-4,
		Mechanism:  cache.MechanismSRB,
		PreciseSRB: true,
	}
	for _, workers := range []int{1, 2} {
		var cancel context.CancelFunc
		eng, err := NewEngine(p, EngineOptions{Workers: workers, Hook: func(ev ArtifactEvent) {
			if cancel != nil && ev.Artifact == ArtifactFMMColumn && ev.Precise {
				cancel()
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, c := context.WithCancel(context.Background())
		cancel = c
		_, err = eng.AnalyzeContext(ctx, q)
		c()
		cancel = nil
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: query canceled after its precise column = %v, want context.Canceled", workers, err)
		}
		if ms := eng.MemStats(); ms.PinnedBytes != 0 || ms.PinnedArtifacts != 0 {
			t.Fatalf("workers=%d: canceled query left pins behind: %+v", workers, ms)
		}
		got, err := eng.Analyze(q)
		if err != nil {
			t.Fatalf("workers=%d: live query after cancellation: %v", workers, err)
		}
		fresh, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		requireDeepEqualResult(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}
