package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/batchspec"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/malardalen"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // unsorted on purpose
	}
	return v
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{10000, 99.9, 9990, 10},
		{9999, 99, 9900, 99},
		{1000, 99, 990, 10},
		{999, 95, 950, 49},
		{100, 90, 90, 10},
		{99, 75, 75, 24},
		{21, 50, 11, 10},
		{20, 50, 10, 10},
		{5, 50, 3, 2},
	} {
		pct, value, beyond := tail(seq(tc.n))
		if pct != tc.pct || value != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond",
				tc.n, pct, value, beyond, tc.pct, tc.value, tc.beyond)
		}
		if tc.n >= 2*minBeyond+1 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if _, v, _ := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail of no samples = %g, want NaN", v)
	}
	if got := percentile(seq(101), 50); got != 51 {
		t.Errorf("median of 1..101 = %g, want 51", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{3}, 3},
		{[]float64{1e300, 1e300}, 1e300},
	} {
		if got := geomean(tc.in); math.Abs(got-tc.want) > 1e-12*tc.want {
			t.Errorf("geomean(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	for _, in := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if got := geomean(in); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %g, want NaN", in, got)
		}
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.computed.srb-classification", "a", "9x", strings.Repeat("m", 64)} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "lat%", "é", strings.Repeat("m", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	ls := &layerStats{}
	for _, m := range ls.metrics() {
		if !validMetricName(m.name) {
			t.Errorf("per-layer metric %q has an invalid name", m.name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkJSONMatches checks that the program prints exactly the
// metrics BENCHMARK.json declares, with the same units, and knows every
// declared workload.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var declWorkloads []string
	for _, w := range decl.Workloads {
		declWorkloads = append(declWorkloads, w.Name)
	}
	slices.Sort(declWorkloads)
	if got := names(); !slices.Equal(got, declWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", got, declWorkloads)
	}
	r := &run{setups: []time.Duration{time.Second}, elapsed: time.Second, rowsOK: 1,
		latencies: []float64{1}, firstRows: []float64{1}, attempted: 1, ratios: []float64{1}}
	e2e, err := endToEnd(io.Discard, r)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("%s metric %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", e2e, decl.EndToEnd)
	same("per_layer", (&layerStats{}).metrics(), decl.PerLayer)
}

func TestSeedDeterminism(t *testing.T) {
	c1, c1b, c2 := &config{seed: 1}, &config{seed: 1}, &config{seed: 2}
	progs := malardalen.Names()
	a, b, other := shuffled(c1.rng(1), progs), shuffled(c1b.rng(1), progs), shuffled(c2.rng(1), progs)
	if !slices.Equal(a, b) {
		t.Error("same seed gave different design-space program orders")
	}
	if slices.Equal(a, other) {
		t.Error("different seeds gave the same design-space program order")
	}
	x, y := slices.Clone(a), slices.Clone(other)
	slices.Sort(x)
	slices.Sort(y)
	if !slices.Equal(x, y) {
		t.Error("different seeds changed the program set, not just its order")
	}

	deck := serviceDeck()
	requests := func(c *config) []int {
		st := &serviceState{deck: deck, rng: c.rng(1)}
		var out []int
		for i := 0; i < 3*len(deck); i++ {
			spec, _ := st.take()
			out = append(out, spec)
		}
		return out
	}
	r1, r1b, r2 := requests(c1), requests(c1b), requests(c2)
	if !slices.Equal(r1, r1b) {
		t.Error("same seed gave different service request sequences")
	}
	if slices.Equal(r1, r2) {
		t.Error("different seeds gave the same service request sequence")
	}
	// Every pass over the deck sends each spec exactly once.
	for pass := 0; pass < 3; pass++ {
		got := slices.Clone(r2[pass*len(deck) : (pass+1)*len(deck)])
		slices.Sort(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("pass %d does not send every spec once: %v", pass, got)
			}
		}
	}
}

func TestGeneratedSpecsParse(t *testing.T) {
	for _, body := range serviceDeck() {
		spec, err := batchspec.Parse(strings.NewReader(body))
		if err != nil {
			t.Fatalf("service spec %s: %v", body, err)
		}
		want := 24
		if spec.FaultModel == fault.KindCombined {
			want = 8
		}
		if spec.NumRows() != want {
			t.Errorf("service spec %s: %d rows, want %d", body, spec.NumRows(), want)
		}
	}
	if n := len(serviceDeck()); n != 4*len(servicePrograms) {
		t.Errorf("service deck has %d specs, want %d", n, 4*len(servicePrograms))
	}
	count := func(bodies []string) int {
		n := 0
		for _, body := range bodies {
			spec, err := batchspec.Parse(strings.NewReader(body))
			if err != nil {
				t.Fatalf("spec %s: %v", body, err)
			}
			n += len(spec.Queries())
		}
		return n
	}
	if n := count(designSpecs()); n != 12*3 {
		t.Errorf("design-space grid has %d queries, want 36", n)
	}
	if n := count(tailSpecs()); n != 18+18+54 {
		t.Errorf("tail-warm grid has %d queries, want 90", n)
	}
}

// TestReplayMatchesEngine checks the stage replay against the engine on
// every fault model and mechanism, on a small program.
func TestReplayMatchesEngine(t *testing.T) {
	p := malardalen.MustGet("bs")
	cfg := cache.Config{Sets: 32, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100}
	rec := newRecorder()
	ls := &layerStats{rec: rec, nproc: 2}
	rp := &replayer{rec: rec, artifactWorkers: 2, stageWorkers: 1, nproc: 2}
	r := &run{}
	for _, scn := range []fault.Scenario{nil, fault.Transient{Lambda: 1e-9}, fault.Combined{Pfail: 1e-4, Lambda: 1e-10}} {
		for _, m := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			q := core.Query{Cache: cfg, Scenario: scn, Mechanism: m, TargetExceedance: 1e-12}
			if scn == nil {
				q.Pfail = 1e-4
			}
			ls.replayQuery(r, rp, freshEngine(2), p, q, 1)
		}
	}
	if r.failed != 0 {
		t.Fatalf("replay disagrees with the engine: %v", r.failures)
	}
	if ls.replays != 9 {
		t.Errorf("%d replays, want 9", ls.replays)
	}
	busy, count := rec.totals()
	for _, st := range []string{stSystem, stClassify, stWCET, stFMM, stHitBound, stBinomial, stReduce, stQuantile} {
		if count[st] == 0 || busy[st] <= 0 {
			t.Errorf("stage %s not recorded", st)
		}
	}
}
