package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/program"
)

// Span names recorded around the workloads' own calls into the layers.
const (
	spParse = "batchspec.parse"
	spRow   = "batchspec.row"
)

// artifactKinds lists every core.Artifact, in metric order.
var artifactKinds = []core.Artifact{
	core.ArtifactClassification, core.ArtifactSRBClassification, core.ArtifactWCET,
	core.ArtifactFMMCore, core.ArtifactFMMColumn, core.ArtifactTransientBound,
}

// artifactStage maps an artifact computation to the replay stage that
// does the same work.
var artifactStage = map[core.Artifact]string{
	core.ArtifactClassification:    stClassify,
	core.ArtifactSRBClassification: stSRB,
	core.ArtifactWCET:              stWCET,
	core.ArtifactFMMCore:           stFMM,
	core.ArtifactFMMColumn:         stFMM,
	core.ArtifactTransientBound:    stHitBound,
}

// hookCounts counts EngineOptions.Hook events per artifact kind.
type hookCounts [8]atomic.Int64

func (h *hookCounts) hook(ev core.ArtifactEvent) { h[ev.Artifact].Add(1) }

func (h *hookCounts) snapshot() (s [8]int64) {
	for i := range h {
		s[i] = h[i].Load()
	}
	return s
}

// layerStats accumulates the per-layer measurements of a traced run
// that are not span durations.
type layerStats struct {
	rec   *recorder
	nproc int

	// replays counts stage replays; binomialAtoms, coarsenIn and
	// coarsenOut sum their atom counts; reduce1/reduceN time the same
	// reductions at one and at nproc workers.
	replays                              int
	binomialAtoms, coarsenIn, coarsenOut int64
	reduce1, reduceN                     time.Duration
	// queryTime is the engine time of the replayed queries; ran holds,
	// per stage, the replayed time of the work those engine calls did.
	queryTime time.Duration
	ran       map[string]time.Duration

	// Engine counters of the timed phase.
	computed                [8]int64
	memoHits, memoMisses    uint64
	evictions               uint64
	artifactBytesPeak       int64
	rowBytes                int64
	rows                    int
	poolHits, poolMisses    uint64
	engineBuilds, poolEvict uint64
	enginePrep              time.Duration

	// tracedRowsPerS is the traced run's own throughput; the untraced
	// run's rows_per_s minus it is the tracing overhead.
	tracedRowsPerS float64
}

// engineCall runs one query on an engine in the state the workload
// keeps it in and reports its wall time, the artifacts it computed and
// whether the time includes building the engine (ipet.NewSystem).
type engineCall func(p *program.Program, q core.Query) (res *core.Result, d time.Duration, computed [8]int64, built bool, err error)

// freshEngine is the engineCall of workloads that build an engine per
// unit: NewEngine plus one AnalyzeContext, every artifact computed.
func freshEngine(workers int) engineCall {
	return func(p *program.Program, q core.Query) (*core.Result, time.Duration, [8]int64, bool, error) {
		var h hookCounts
		start := time.Now()
		e, err := core.NewEngine(p, core.EngineOptions{Workers: workers, Hook: h.hook})
		if err != nil {
			return nil, 0, h.snapshot(), true, err
		}
		res, err := e.AnalyzeContext(context.Background(), q)
		return res, time.Since(start), h.snapshot(), true, err
	}
}

// replayQuery pairs one engine call with a stage replay of the same
// query. The replay must reproduce the engine's fault-free WCET and
// pWCET; a mismatch fails the unit.
func (ls *layerStats) replayQuery(r *run, rp *replayer, call engineCall, p *program.Program, q core.Query, req int) {
	r.attempted++
	sp := ls.rec.begin("core.query", 0, req)
	res, d, computed, built, err := call(p, q)
	ls.rec.end(sp)
	if err != nil {
		r.fail("%s: engine: %v", p.Name, err)
		return
	}
	out, err := rp.replay(p, q, req)
	if err != nil {
		r.fail("%s: replay: %v", p.Name, err)
		return
	}
	if out.ff != res.FaultFreeWCET || out.pwcet != res.PWCET {
		r.fail("%s %+v: replay ff/pwcet %d/%d, engine %d/%d", p.Name, q, out.ff, out.pwcet, res.FaultFreeWCET, res.PWCET)
		return
	}
	ls.replays++
	ls.binomialAtoms += out.binomialAtoms
	ls.coarsenIn += out.coarsenIn
	ls.coarsenOut += out.coarsenOut
	ls.reduce1 += out.reduce1
	ls.reduceN += out.reduceN
	ls.queryTime += d

	// The engine ran the per-query stages plus the artifacts its hook
	// reported; its single-query call reduces at nproc workers.
	ran := map[string]bool{stSystem: built}
	for _, a := range artifactKinds {
		if computed[a] > 0 {
			ran[artifactStage[a]] = true
		}
	}
	if ls.ran == nil {
		ls.ran = map[string]time.Duration{}
	}
	for name, t := range out.stages {
		if artifactStages[name] && !ran[name] {
			continue
		}
		if name == stReduce && out.reduceN > 0 {
			t = out.reduceN
		}
		ls.ran[name] += t
	}
}

// row records the bytes of one encoded result row.
func (ls *layerStats) row(n int) {
	if ls != nil {
		ls.rowBytes += int64(n)
		ls.rows++
	}
}

// metrics returns every per-layer metric, in a fixed order.
func (ls *layerStats) metrics() []metric {
	busy, count := ls.rec.totals()
	msOf := func(name string) float64 { return ms(busy[name]) }
	perCall := func(name string, unit time.Duration) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(busy[name]) / float64(count[name]) / float64(unit)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := []metric{
		{"absint.classify_ms", "ms", msOf(stClassify)},
		{"absint.classify_calls", "count", float64(count[stClassify])},
		{"absint.srb_ms", "ms", msOf(stSRB)},
		{"ipet.system_ms", "ms", msOf(stSystem)},
		{"ipet.system_calls", "count", float64(count[stSystem])},
		{"ipet.wcet_ms", "ms", msOf(stWCET)},
		{"ipet.fmm_ms", "ms", msOf(stFMM)},
		{"ipet.fmm_calls", "count", float64(count[stFMM])},
		{"ipet.hitbound_ms", "ms", msOf(stHitBound)},
		{"ipet.hitbound_calls", "count", float64(count[stHitBound])},
		{"fault.binomial_ms", "ms", msOf(stBinomial)},
		{"fault.binomial_atoms", "count", float64(ls.binomialAtoms)},
		{"dist.build_ms", "ms", msOf(stBuild)},
		{"dist.reduce_ms", "ms", msOf(stReduce)},
		{"dist.reduce_calls", "count", float64(count[stReduce])},
		{"dist.fold_convolve_ms", "ms", msOf(stFoldConv)},
		{"dist.fold_coarsen_ms", "ms", msOf(stFoldCoars)},
		{"dist.quantile_ms", "ms", msOf(stQuantile)},
		{"dist.coarsen_in_atoms", "count", float64(ls.coarsenIn)},
		{"dist.coarsen_out_atoms", "count", float64(ls.coarsenOut)},
		{"dist.reduce_speedup", "x", ratio(float64(ls.reduce1), float64(ls.reduceN))},
		{"core.query_ms", "ms", ms(ls.queryTime)},
		{"core.self_ms", "ms", ms(ls.queryTime - sum(ls.ran))},
		{"core.memo_hit_ratio", "ratio", ratio(float64(ls.memoHits), float64(ls.memoHits+ls.memoMisses))},
	}
	for _, a := range artifactKinds {
		m = append(m, metric{"core.computed." + a.String(), "count", float64(ls.computed[a])})
	}
	m = append(m,
		metric{"core.evictions", "count", float64(ls.evictions)},
		metric{"core.artifact_bytes_peak", "bytes", float64(ls.artifactBytesPeak)},
		metric{"batchspec.parse_us", "us", perCall(spParse, time.Microsecond)},
		metric{"batchspec.row_us", "us", perCall(spRow, time.Microsecond)},
		metric{"batchspec.row_bytes", "bytes", ratio(float64(ls.rowBytes), float64(ls.rows))},
		metric{"serve.pool_hit_ratio", "ratio", ratio(float64(ls.poolHits), float64(ls.poolHits+ls.poolMisses))},
		metric{"serve.engine_builds", "count", float64(ls.engineBuilds)},
		metric{"serve.engine_evictions", "count", float64(ls.poolEvict)},
		metric{"serve.engine_prep_ms", "ms", ms(ls.enginePrep)},
		metric{"trace.rows_per_s", "1/s", ls.tracedRowsPerS},
	)
	return m
}

// layerOf names the layer a replay stage belongs to.
func layerOf(stage string) string {
	layer, _, _ := strings.Cut(stage, ".")
	return layer
}

// replayStages lists the replay stages in pipeline order.
var replayStages = []string{stSystem, stClassify, stSRB, stWCET, stFMM, stHitBound, stModel,
	stBinomial, stBuild, stReduce, stFoldConv, stFoldCoars, stQuantile}

func sum(m map[string]time.Duration) time.Duration {
	var t time.Duration
	for _, d := range m {
		t += d
	}
	return t
}

// printShares prints each layer's and each stage's share of the
// replayed time twice: over every stage of the replayed queries, and
// over the stages the workload's engine calls actually ran (memo hits
// excluded), the basis for the per-layer profile.
func (ls *layerStats) printShares(w io.Writer) {
	busy, _ := ls.rec.totals()
	all := map[string]time.Duration{}
	for _, s := range replayStages {
		all[s] = busy[s]
	}
	totalAll, totalRan := sum(all), sum(ls.ran)
	if totalAll == 0 || totalRan == 0 {
		return
	}
	fmt.Fprintf(w, "replay of %d queries: all stages %.1f ms, stages the engine ran %.1f ms\n",
		ls.replays, ms(totalAll), ms(totalRan))
	share := func(m map[string]time.Duration, total time.Duration, keep func(string) bool) float64 {
		var t time.Duration
		for s, d := range m {
			if keep(s) {
				t += d
			}
		}
		return 100 * float64(t) / float64(total)
	}
	for _, layer := range []string{"absint", "ipet", "fault", "dist"} {
		in := func(s string) bool { return layerOf(s) == layer }
		fmt.Fprintf(w, "  layer %-22s %5.1f%% %5.1f%%\n", layer, share(all, totalAll, in), share(ls.ran, totalRan, in))
	}
	for _, st := range replayStages {
		is := func(s string) bool { return s == st }
		fmt.Fprintf(w, "  stage %-22s %5.1f%% %5.1f%%\n", st, share(all, totalAll, is), share(ls.ran, totalRan, is))
	}
	if ls.reduceN > 0 {
		fmt.Fprintf(w, "  ConvolveAllWith %.2fx at %d workers vs 1\n", float64(ls.reduce1)/float64(ls.reduceN), ls.nproc)
	}
}
