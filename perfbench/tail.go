package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/malardalen"
	"repro/internal/program"
)

// tailPrograms are the tail-warm programs: light, medium and heavy
// deep-tail queries, a mix whose whole grid one run covers several
// times, so every seed measures the same population in another order.
var tailPrograms = []string{"crc", "fft", "ndes", "statemate", "edn", "minver", "nsichneu", "cnt", "bs", "fibcall"}

// tailCacheJSON is the 256-set 4-way cache of the tail-warm grid.
const tailCacheJSON = `"cache":{"sets":256,"ways":4,"block_bytes":16,"hit_latency":1,"mem_latency":100}`

// tailSpecs spans the tail-warm grid: Permanent, Transient and
// Combined over pfail {0, 1e-5, 1e-4} and lambda {1e-12, 1e-10, 1e-9}
// (each model only on the axes it has), none/srb, and three targets.
func tailSpecs() []string {
	const axes = `"mechanisms":["none","srb"],"targets":[1e-9,1e-12,1e-15],` + tailCacheJSON
	names, _ := json.Marshal(tailPrograms)
	bench := `"benchmarks":` + string(names) + `,`
	return []string{
		`{` + bench + `"fault_model":"permanent","pfails":[0,1e-5,1e-4],` + axes + `}`,
		`{` + bench + `"fault_model":"transient","lambdas":[1e-12,1e-10,1e-9],` + axes + `}`,
		`{` + bench + `"fault_model":"combined","pfails":[0,1e-5,1e-4],"lambdas":[1e-12,1e-10,1e-9],` + axes + `}`,
	}
}

// Stage-replay and post-run check sample sizes of tail-warm.
const (
	tailSetupReps = 3
	tailReplays   = 20
	tailColdRows  = 4
)

// tailEngine is one program's warm engine and its artifact counters.
type tailEngine struct {
	p     *program.Program
	e     *core.Engine
	hooks *hookCounts
	// pwcet and ff hold the first result of each grid query; runs counts how often each query ran and bad marks queries
	// whose checks failed.
	pwcet, ff []int64
	runs      []int
	bad       []bool
}

// tailSetup builds the programs, parses the grid, builds one engine per
// program and computes every artifact the grid reads.
func tailSetup(c *config) ([]*tailEngine, []core.Query, time.Duration, error) {
	specs, err := parseSpecs(c.rec, 0, tailSpecs())
	if err != nil {
		return nil, nil, 0, err
	}
	var grid []core.Query
	for _, s := range specs {
		grid = append(grid, s.Queries()...)
	}
	var prep time.Duration
	engines := make([]*tailEngine, len(tailPrograms))
	for i, name := range tailPrograms {
		p, err := malardalen.Get(name)
		if err != nil {
			return nil, nil, 0, err
		}
		te := &tailEngine{p: p, hooks: &hookCounts{}}
		opt := core.EngineOptions{Workers: c.nproc}
		if c.trace {
			opt.Hook = te.hooks.hook
		}
		start := time.Now()
		if te.e, err = core.NewEngine(p, opt); err != nil {
			return nil, nil, 0, err
		}
		prep += time.Since(start)
		for _, m := range []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB} {
			q := grid[0]
			q.Scenario, q.Pfail, q.Mechanism = fault.Combined{Pfail: 1e-4, Lambda: 1e-9}, 0, m
			if _, err := te.e.Analyze(q); err != nil {
				return nil, nil, 0, fmt.Errorf("%s warm-up: %w", name, err)
			}
		}
		te.pwcet, te.ff = make([]int64, len(grid)), make([]int64, len(grid))
		te.runs, te.bad = make([]int, len(grid)), make([]bool, len(grid))
		engines[i] = te
	}
	return engines, grid, prep, nil
}

// tailWarm is the deep-tail exploration path: one interactive caller
// sends single AnalyzeContext queries to warm engines on a 256-set
// cache. Each round visits every program once, in a seed order, and
// takes its next query from a seed-shuffled pass over its grid.
func tailWarm(c *config) (*run, error) {
	// rows_per_s is the whole-run rate: queries differ 100x in cost, so a
	// short window's rate mostly says which queries fell in it.
	r := &run{}
	var engines []*tailEngine
	var grid []core.Query
	var prep time.Duration
	for i := 0; i < tailSetupReps; i++ {
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		var err error
		if engines, grid, prep, err = tailSetup(c); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start))
	}
	var ls *layerStats
	if c.trace {
		ls = &layerStats{rec: c.rec, nproc: c.nproc, engineBuilds: uint64(len(engines)), enginePrep: prep}
		r.layers = ls
	}
	before := tailCounters(engines)

	orderRng := c.rng(1)
	perm := make([][]int, len(engines))
	for i := range engines {
		perm[i] = orderRng.Perm(len(grid))
	}
	ctx := context.Background()
	var ran []tailRun
	rss := sampleRSS()
	req := 0
	start := time.Now()
	var end time.Time
	for round := 0; c.timed(start); round++ {
		for _, pi := range orderRng.Perm(len(engines)) {
			if !c.timed(start) {
				break
			}
			te, qi := engines[pi], perm[pi][round%len(grid)]
			q := grid[qi]
			req++
			r.attempted++
			unit := c.rec.begin("tail.query", 0, req)
			t0 := time.Now()
			sp := c.rec.begin("core.analyze", unit, req)
			res, err := te.e.AnalyzeContext(ctx, q)
			c.rec.end(sp)
			if err == nil {
				_, err = encodeRow(c.rec, ls, unit, req, te.p.Name, q, res)
			}
			lat := ms(time.Since(t0))
			c.rec.end(unit)
			end = time.Now()
			if err != nil {
				r.fail("%s query %d: %v", te.p.Name, qi, err)
				continue
			}
			r.latencies = append(r.latencies, lat)
			r.firstRows = append(r.firstRows, lat)
			ran = append(ran, tailRun{te, qi, end.Sub(start)})
			te.runs[qi]++
			if te.runs[qi] == 1 {
				te.pwcet[qi], te.ff[qi] = res.PWCET, res.FaultFreeWCET
				r.ratios = append(r.ratios, float64(res.PWCET)/float64(res.FaultFreeWCET))
			} else if te.pwcet[qi] != res.PWCET || te.ff[qi] != res.FaultFreeWCET {
				te.bad[qi] = true
				r.note("%s query %d: result changed between runs", te.p.Name, qi)
			}
		}
	}
	r.elapsed = end.Sub(start)
	r.rssPeaks = rss.stop()

	if ls != nil {
		after := tailCounters(engines)
		ls.memoHits, ls.memoMisses = after.hits-before.hits, after.misses-before.misses
		ls.evictions = after.evictions - before.evictions
		ls.artifactBytesPeak = after.bytes
		for i := range ls.computed {
			ls.computed[i] = after.computed[i] - before.computed[i]
		}
		ls.poolHits = uint64(r.attempted)
	}

	for _, te := range engines {
		checkTailRelations(r, te, grid)
	}
	if err := tailCrossChecks(c, r, engines, grid); err != nil {
		return nil, err
	}
	// A failed check fails every run of the query it implicates.
	badRuns := 0
	for _, te := range engines {
		for qi, bad := range te.bad {
			if bad {
				badRuns += te.runs[qi]
			}
		}
	}
	r.failed += badRuns
	r.rowsOK = len(r.latencies) - badRuns
	for _, x := range ran {
		if !x.te.bad[x.qi] {
			r.done = append(r.done, doneUnit{x.at, 1})
		}
	}
	if ls != nil {
		ls.tracedRowsPerS = r.rowsPerSecond()
		rp := &replayer{rec: c.rec, artifactWorkers: c.nproc, stageWorkers: c.nproc, nproc: c.nproc}
		rng := c.rng(2)
		for i := 0; i < tailReplays; i++ {
			te := engines[rng.IntN(len(engines))]
			q := grid[rng.IntN(len(grid))]
			req++
			ls.replayQuery(r, rp, warmEngine(te), te.p, q, req)
		}
	}
	return r, nil
}

// tailRun is one completed query of the timed phase.
type tailRun struct {
	te *tailEngine
	qi int
	at time.Duration
}

// warmEngine is the engineCall of tail-warm: one query on the
// program's warm engine, with the artifacts it computed on the way.
func warmEngine(te *tailEngine) engineCall {
	return func(p *program.Program, q core.Query) (*core.Result, time.Duration, [8]int64, bool, error) {
		before := te.hooks.snapshot()
		start := time.Now()
		res, err := te.e.AnalyzeContext(context.Background(), q)
		d := time.Since(start)
		after := te.hooks.snapshot()
		for i := range after {
			after[i] -= before[i]
		}
		return res, d, after, false, err
	}
}

// tailTotals sums the engines' memo and artifact counters.
type tailTotals struct {
	hits, misses, evictions uint64
	bytes                   int64
	computed                [8]int64
}

func tailCounters(engines []*tailEngine) tailTotals {
	var t tailTotals
	for _, te := range engines {
		st := te.e.MemStats()
		t.hits += st.Hits
		t.misses += st.Misses
		t.evictions += st.Evictions
		t.bytes += st.ArtifactBytes
		for i, n := range te.hooks.snapshot() {
			t.computed[i] += n
		}
	}
	return t
}

// tailKey identifies a grid point by its axes.
type tailKey struct {
	kind       fault.Kind
	pfail, lam float64
	mech       cache.Mechanism
	target     float64
}

func keyOf(q core.Query) tailKey {
	k := tailKey{kind: fault.KindPermanent, pfail: q.Pfail, mech: q.Mechanism, target: q.TargetExceedance}
	if q.Scenario != nil {
		k.kind = q.Scenario.Kind()
		k.pfail, k.lam = fault.Components(q.Scenario)
	}
	return k
}

// checkTailRelations applies the relational gates to the queries of one
// program that ran: pWCET at least the fault-free WCET; Combined{0,l}
// equal to Transient{l}; transient rows equal across mechanisms; pWCET
// monotone in lambda (Permanent{p} counting as lambda 0 of
// Combined{p,.}) and in the target. Both rows of a violated relation
// are marked bad.
func checkTailRelations(r *run, te *tailEngine, grid []core.Query) {
	at := map[tailKey]int{}
	for qi, q := range grid {
		if te.runs[qi] > 0 {
			at[keyOf(q)] = qi
		}
	}
	fail := func(a, b int, what string) {
		te.bad[a], te.bad[b] = true, true
		r.note("%s: %s: %v=%d vs %v=%d", te.p.Name, what, keyOf(grid[a]), te.pwcet[a], keyOf(grid[b]), te.pwcet[b])
	}
	// leq checks pwcet(a) <= pwcet(b) (or ==) when both ran.
	leq := func(ka, kb tailKey, equal bool, what string) {
		a, okA := at[ka]
		b, okB := at[kb]
		if !okA || !okB {
			return
		}
		if te.pwcet[a] > te.pwcet[b] || (equal && te.pwcet[a] != te.pwcet[b]) {
			fail(a, b, what)
		}
	}
	for k, qi := range at {
		if te.pwcet[qi] < te.ff[qi] {
			fail(qi, qi, "pWCET below fault-free WCET")
		}
		switch k.kind {
		case fault.KindTransient:
			c := k
			c.kind, c.pfail = fault.KindCombined, 0
			leq(c, k, true, "Combined{0,l} != Transient{l}")
			if k.mech == cache.MechanismNone {
				s := k
				s.mech = cache.MechanismSRB
				leq(k, s, true, "transient rows differ across mechanisms")
			}
		case fault.KindPermanent:
			c := k
			c.kind, c.lam = fault.KindCombined, 1e-12
			leq(k, c, false, "Permanent{p} above Combined{p,1e-12}")
		}
		for _, pair := range [][2]float64{{1e-12, 1e-10}, {1e-10, 1e-9}} {
			if k.kind != fault.KindPermanent && k.lam == pair[0] {
				n := k
				n.lam = pair[1]
				leq(k, n, false, "pWCET not monotone in lambda")
			}
		}
		for _, pair := range [][2]float64{{1e-9, 1e-12}, {1e-12, 1e-15}} {
			if k.target == pair[0] {
				n := k
				n.target = pair[1]
				leq(k, n, false, "pWCET not monotone in target")
			}
		}
	}
}

// tailCrossChecks re-derives seed-sampled rows two other ways: on a
// fresh cold engine, and for permanent rows as Combined{p, 0} on the
// warm engine. Both must equal the row.
func tailCrossChecks(c *config, r *run, engines []*tailEngine, grid []core.Query) error {
	type ran struct {
		te *tailEngine
		qi int
	}
	var done []ran
	for _, te := range engines {
		for qi := range grid {
			if te.runs[qi] > 0 {
				done = append(done, ran{te, qi})
			}
		}
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].te.p.Name < done[j].te.p.Name })
	if len(done) == 0 {
		return nil
	}
	rng := c.rng(3)
	ctx := context.Background()
	check := func(x ran, res *core.Result, how string) {
		if res.PWCET != x.te.pwcet[x.qi] || res.FaultFreeWCET != x.te.ff[x.qi] {
			x.te.bad[x.qi] = true
			r.note("%s %v: %s gives %d/%d, row %d/%d", x.te.p.Name,
				keyOf(grid[x.qi]), how, res.FaultFreeWCET, res.PWCET, x.te.ff[x.qi], x.te.pwcet[x.qi])
		}
	}
	for i := 0; i < tailColdRows; i++ {
		x := done[rng.IntN(len(done))]
		e, err := core.NewEngine(x.te.p, core.EngineOptions{Workers: c.nproc})
		if err != nil {
			return err
		}
		res, err := e.AnalyzeContext(ctx, grid[x.qi])
		if err != nil {
			return fmt.Errorf("cold engine: %w", err)
		}
		check(x, res, "cold engine")
	}
	var perm []ran
	for _, x := range done {
		if grid[x.qi].Scenario == nil {
			perm = append(perm, x)
		}
	}
	for i := 0; i < tailColdRows && len(perm) > 0; i++ {
		x := perm[rng.IntN(len(perm))]
		q := grid[x.qi]
		q.Scenario, q.Pfail = fault.Combined{Pfail: q.Pfail}, 0
		res, err := x.te.e.AnalyzeContext(ctx, q)
		if err != nil {
			return fmt.Errorf("Combined{p,0}: %w", err)
		}
		check(x, res, "Combined{p,0}")
	}
	return nil
}
