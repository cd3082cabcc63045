package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/batchspec"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/malardalen"
	"repro/internal/program"
)

// setupReps is how many times design-space and service repeat their
// set-up, which takes milliseconds; setup_s is the median.
const setupReps = 51

// golden is the paper-configuration table of
// internal/malardalen/golden_test.go (pfail 1e-4, target 1e-15):
// fault-free WCET and pWCET without protection, with RW and with SRB.
var golden = map[string][4]int64{
	"adpcm": {24577, 314077, 218977, 225877}, "bs": {2509, 5509, 2509, 3409},
	"bsort100": {11453, 35753, 11453, 18653}, "cnt": {10702, 32302, 10702, 18302},
	"cover": {33553, 64053, 35653, 35653}, "crc": {20397, 233097, 148997, 174697},
	"edn": {18349, 63149, 18449, 28849}, "expint": {10766, 31966, 10766, 17766},
	"fdct": {156983, 214583, 156983, 156983}, "fft": {20754, 150454, 124654, 125154},
	"fibcall": {6993, 17293, 6993, 8993}, "fir": {11583, 45283, 11583, 22583},
	"insertsort": {10463, 31063, 10463, 18063}, "janne_complex": {9269, 32069, 9269, 16169},
	"jfdctint": {173725, 236225, 173725, 173725}, "ludcmp": {23555, 232555, 121155, 124355},
	"matmult": {14078, 58978, 14078, 29878}, "minver": {14621, 65121, 21921, 31121},
	"ndes": {161663, 292763, 201663, 203163}, "ns": {12686, 93486, 12686, 40386},
	"nsichneu": {60940, 94540, 60940, 60940}, "prime": {10623, 45423, 10623, 21623},
	"qurt": {24634, 412934, 302634, 335434}, "statemate": {41591, 62091, 43791, 43791},
	"ud": {62331, 853731, 516031, 529331},
}

// designSpecs returns the design-space grid as batch specifications:
// one per cache geometry (sets 8/16/32/64 x ways 2/4/8, 16-byte lines,
// the paper's latencies), each over all three mechanisms at pfail 1e-4
// and target 1e-15.
func designSpecs() []string {
	var specs []string
	for _, sets := range []int{8, 16, 32, 64} {
		for _, ways := range []int{2, 4, 8} {
			specs = append(specs, fmt.Sprintf(`{"pfails":[1e-4],"targets":[1e-15],`+
				`"cache":{"sets":%d,"ways":%d,"block_bytes":16,"hit_latency":1,"mem_latency":100}}`, sets, ways))
		}
	}
	return specs
}

// parseSpecs parses specification bodies, recording each parse.
func parseSpecs(rec *recorder, req int, bodies []string) ([]*batchspec.Spec, error) {
	specs := make([]*batchspec.Spec, len(bodies))
	for i, b := range bodies {
		sp := rec.begin(spParse, 0, req)
		s, err := batchspec.Parse(strings.NewReader(b))
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", b, err)
		}
		specs[i] = s
	}
	return specs, nil
}

// encodeRow builds and encodes one result row, as the batch front ends
// do for every row they emit.
func encodeRow(rec *recorder, ls *layerStats, parent, req int, name string, q core.Query, res *core.Result) ([]byte, error) {
	sp := rec.begin(spRow, parent, req)
	b, err := json.Marshal(batchspec.RowOf(name, q, res))
	rec.end(sp)
	ls.row(len(b) + 1)
	return b, err
}

// designSpace is the paper's Fig. 4 sweep widened to twelve cache
// geometries: each round gives every suite program a fresh engine and
// one batch over the whole grid. One caller; a unit is one program's
// grid (NewEngine + AnalyzeBatchStream + row encoding).
func designSpace(c *config) (*run, error) {
	r := &run{}
	var progs []*program.Program
	var queries []core.Query
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		progs = malardalen.All()
		specs, err := parseSpecs(c.rec, 0, designSpecs())
		if err != nil {
			return nil, err
		}
		queries = queries[:0]
		for _, s := range specs {
			queries = append(queries, s.Queries()...)
		}
		r.setups = append(r.setups, time.Since(start))
	}
	order := shuffled(c.rng(1), progs)
	paper := cache.PaperConfig()
	var ls *layerStats
	if c.trace {
		ls = &layerStats{rec: c.rec, nproc: c.nproc}
		r.layers = ls
	}

	// first holds each program's first-round pWCETs; later rounds must
	// reproduce them exactly.
	first := map[string][]int64{}
	rss := sampleRSS()
	req := 0
	start := time.Now()
	var end time.Time
	for c.timed(start) {
		complete := true
		for _, p := range order {
			if !c.timed(start) {
				complete = false
				break
			}
			req++
			r.attempted++
			lat, firstRow, results, err := designUnit(c, ls, p, queries, req)
			end = time.Now()
			if err != nil {
				r.fail("%s: %v", p.Name, err)
				continue
			}
			r.latencies = append(r.latencies, lat)
			r.firstRows = append(r.firstRows, firstRow)
			if msg := checkDesignRows(p.Name, queries, results, paper, first); msg != "" {
				r.fail("%s", msg)
				continue
			}
			r.rowsOK += len(results)
			r.done = append(r.done, doneUnit{end.Sub(start), len(results)})
			if _, seen := first[p.Name]; !seen {
				pw := make([]int64, len(results))
				for i, res := range results {
					pw[i] = res.PWCET
					r.ratios = append(r.ratios, float64(res.PWCET)/float64(res.FaultFreeWCET))
				}
				first[p.Name] = pw
			}
		}
		// Throughput windows are whole rounds, so each holds every
		// program once whatever the seed's order.
		if complete {
			r.windows = append(r.windows, end.Sub(start))
		}
	}
	r.elapsed = end.Sub(start)
	r.rssPeaks = rss.stop()

	if ls != nil {
		ls.tracedRowsPerS = r.rowsPerSecond()
		rp := &replayer{rec: c.rec, artifactWorkers: c.nproc, stageWorkers: 1, nproc: c.nproc}
		call := freshEngine(c.nproc)
		rng := c.rng(2)
		for i := 0; i < designReplays; i++ {
			p, q := progs[rng.IntN(len(progs))], queries[rng.IntN(len(queries))]
			req++
			ls.replayQuery(r, rp, call, p, q, req)
		}
	}
	return r, nil
}

// designReplays is the number of seed-sampled queries a traced
// design-space run replays stage by stage.
const designReplays = 48

// designUnit runs one program's grid on a fresh engine and returns the
// unit latency and the time to the batch's first completed row (both in
// ms), and the results in grid order.
func designUnit(c *config, ls *layerStats, p *program.Program, queries []core.Query, req int) (float64, float64, []*core.Result, error) {
	unit := c.rec.begin("design.unit", 0, req)
	defer c.rec.end(unit)
	var h hookCounts
	opt := core.EngineOptions{Workers: c.nproc}
	if ls != nil {
		opt.Hook = h.hook
	}
	start := time.Now()
	sp := c.rec.begin("core.new_engine", unit, req)
	e, err := core.NewEngine(p, opt)
	c.rec.end(sp)
	if err != nil {
		return 0, 0, nil, err
	}
	built := time.Since(start)
	results := make([]*core.Result, len(queries))
	var firstErr error
	var firstRow time.Duration
	sp = c.rec.begin("core.batch", unit, req)
	e.AnalyzeBatchStreamContext(context.Background(), queries, func(br core.BatchResult) {
		if br.Err != nil && firstErr == nil {
			firstErr = br.Err
		}
		results[br.Index] = br.Result
		if firstRow == 0 {
			firstRow = time.Since(start)
		}
	})
	c.rec.end(sp)
	if firstErr != nil {
		return 0, 0, nil, firstErr
	}
	for i, res := range results {
		if _, err := encodeRow(c.rec, ls, unit, req, p.Name, queries[i], res); err != nil {
			return 0, 0, nil, err
		}
	}
	lat := time.Since(start)
	if ls != nil {
		st := e.MemStats()
		ls.memoHits += st.Hits
		ls.memoMisses += st.Misses
		ls.evictions += st.Evictions
		ls.artifactBytesPeak = max(ls.artifactBytesPeak, st.ArtifactBytes)
		for i, n := range h.snapshot() {
			ls.computed[i] += n
		}
		ls.engineBuilds++
		ls.poolMisses++
		ls.enginePrep += built
	}
	return ms(lat), ms(firstRow), results, nil
}

// checkDesignRows applies the design-space gates to one unit: every
// pWCET is at least the fault-free WCET, the paper-geometry rows equal
// the golden table, and a program's rows are the same in every round.
func checkDesignRows(name string, queries []core.Query, results []*core.Result, paper cache.Config, first map[string][]int64) string {
	g, hasGolden := golden[name]
	for i, res := range results {
		q := queries[i]
		if res.PWCET < res.FaultFreeWCET {
			return fmt.Sprintf("%s row %d: pWCET %d below fault-free WCET %d", name, i, res.PWCET, res.FaultFreeWCET)
		}
		if prev, ok := first[name]; ok && prev[i] != res.PWCET {
			return fmt.Sprintf("%s row %d: pWCET %d, earlier round %d", name, i, res.PWCET, prev[i])
		}
		if q.Cache != paper || !hasGolden {
			continue
		}
		if res.FaultFreeWCET != g[0] || res.PWCET != g[1+int(q.Mechanism)] {
			return fmt.Sprintf("%s %v: ff/pWCET %d/%d, golden %d/%d", name, q.Mechanism,
				res.FaultFreeWCET, res.PWCET, g[0], g[1+int(q.Mechanism)])
		}
	}
	return ""
}
