package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/batchspec"
	"repro/internal/core"
	"repro/internal/malardalen"
	"repro/internal/program"
	"repro/internal/serve"
)

// servicePrograms are the ten programs the service clients ask about;
// they share a pool of serviceEngines engines. Their requests cost 1-20 ms each, cold or warm: a program whose
// distribution stage takes hundreds of milliseconds (adpcm, qurt, ud)
// would make every run's throughput a count of how many of its requests
// fell in the window, not a measure of the serving path.
var servicePrograms = []string{"bs", "bsort100", "cover", "edn", "jfdctint", "matmult", "minver", "ndes", "nsichneu", "statemate"}

// Service load and pool shape.
const (
	serviceClients   = 2
	serviceEngines   = 4
	serviceArtifacts = 1 << 20
	serviceReplays   = 24
	requestTimeout   = 60 * time.Second
)

// serviceDeck returns the distinct request specs: per program three
// permanent grids (4 pfails x 3 mechanisms x 2 targets = 24 rows, one
// per target pair) and one combined grid (2 pfails x 2 lambdas x 2
// mechanisms = 8 rows), so three requests in four are permanent.
func serviceDeck() []string {
	var deck []string
	for _, name := range servicePrograms {
		for _, targets := range []string{"1e-9,1e-15", "1e-12,1e-15", "1e-6,1e-15"} {
			deck = append(deck, fmt.Sprintf(`{"benchmarks":[%q],"pfails":[1e-6,1e-5,1e-4,1e-3],"targets":[%s]}`, name, targets))
		}
		deck = append(deck, fmt.Sprintf(`{"benchmarks":[%q],"fault_model":"combined","pfails":[1e-5,1e-4],`+
			`"lambdas":[1e-12,1e-9],"mechanisms":["none","srb"]}`, name))
	}
	return deck
}

// response is what one request returned.
type response struct {
	spec           int
	body           []byte
	rows           int
	latency, first time.Duration
	// at is when the response completed, as an offset into the timed
	// phase.
	at  time.Duration
	err error
}

// serviceState is shared by the client goroutines.
type serviceState struct {
	c    *config
	url  string
	deck []string
	hc   *http.Client

	mu    sync.Mutex
	order []int // the current seed-shuffled pass over the deck
	next  int
	rng   *rand.Rand
	req   int
	resps []response
	first map[int][]byte
}

// take returns the next spec index and request ID.
func (s *serviceState) take() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.order) {
		s.order, s.next = s.rng.Perm(len(s.deck)), 0
	}
	s.next++
	s.req++
	return s.order[s.next-1], s.req
}

// record keeps a response. Only the first body of each spec is kept
// for the oracle; every later response to the spec must equal it byte
// for byte.
func (s *serviceState) record(resp response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if resp.err == nil {
		if first, ok := s.first[resp.spec]; !ok {
			s.first[resp.spec] = resp.body
		} else if !bytes.Equal(first, resp.body) {
			resp.err = errors.New("response differs from an earlier response to the same spec")
		}
	}
	resp.body = nil
	s.resps = append(s.resps, resp)
}

// post sends one spec and reads every NDJSON row.
func (s *serviceState) post(spec, req int) response {
	rec := s.c.rec
	root := rec.begin("http.request", 0, req)
	defer rec.end(root)
	body := s.deck[spec]
	if rec != nil {
		if _, err := parseSpecs(rec, req, []string{body}); err != nil {
			return response{spec: spec, err: err}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	start := time.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/batch", strings.NewReader(body))
	if err != nil {
		return response{spec: spec, err: err}
	}
	resp, err := s.hc.Do(hr)
	if err != nil {
		return response{spec: spec, err: err}
	}
	defer resp.Body.Close()
	out := response{spec: spec}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return out
	}
	want, err := strconv.Atoi(resp.Header.Get("X-Pwcet-Rows"))
	if err != nil {
		out.err = fmt.Errorf("X-Pwcet-Rows: %w", err)
		return out
	}
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	first := rec.begin("http.first_row", root, req)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if out.rows == 0 {
				out.first = time.Since(start)
				rec.end(first)
			}
			if bytes.HasPrefix(line, []byte(`{"error"`)) {
				out.err = fmt.Errorf("error row: %s", bytes.TrimSpace(line))
				return out
			}
			buf.Write(line)
			out.rows++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	out.latency = time.Since(start)
	out.body = buf.Bytes()
	if out.rows != want {
		out.err = fmt.Errorf("%d rows, X-Pwcet-Rows %d", out.rows, want)
	}
	return out
}

// startServer starts the in-process pwcetd handler on loopback and
// waits until it answers.
func startServer(c *config) (*httptest.Server, error) {
	srv := serve.New(serve.Options{
		Workers: c.nproc,
		Pool:    serve.PoolOptions{MaxEngines: serviceEngines, MaxArtifactBytes: serviceArtifacts},
	})
	ts := httptest.NewServer(srv.Handler())
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		ts.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.Close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return ts, nil
}

// service is the pwcetd path: serviceClients keep-alive clients in a
// closed loop post seed-ordered specs over loopback HTTP to the serve
// handler, each reading every row before sending its next request.
func service(c *config) (*run, error) {
	r := &run{windowUnits: 25}
	deck := serviceDeck()
	var ts *httptest.Server
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		if _, err := parseSpecs(c.rec, 0, deck); err != nil {
			return nil, err
		}
		var err error
		if ts, err = startServer(c); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start))
		if i < setupReps-1 {
			ts.Close()
		}
	}
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients, MaxConnsPerHost: serviceClients}
	defer tr.CloseIdleConnections()
	st := &serviceState{c: c, url: ts.URL, deck: deck, hc: &http.Client{Transport: tr}, rng: c.rng(1),
		first: map[int][]byte{}}

	var ls *layerStats
	stopPoll := func() {}
	if c.trace {
		ls = &layerStats{rec: c.rec, nproc: c.nproc}
		r.layers = ls
		mt := &http.Transport{}
		defer mt.CloseIdleConnections()
		stopPoll = pollMetrics(c, &http.Client{Transport: mt}, ts.URL, ls)
	}
	rss := sampleRSS()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.timed(start) {
				spec, req := st.take()
				resp := st.post(spec, req)
				resp.at = time.Since(start)
				st.record(resp)
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.rssPeaks = rss.stop()
	stopPoll()
	if ls != nil {
		if err := readPoolMetrics(st.hc, ts.URL, ls); err != nil {
			return nil, err
		}
	}
	if err := checkService(c, r, st, ls); err != nil {
		return nil, err
	}
	if ls != nil {
		ls.tracedRowsPerS = r.rowsPerSecond()
		rp := &replayer{rec: c.rec, artifactWorkers: c.nproc, stageWorkers: 1, nproc: c.nproc}
		call := freshEngine(c.nproc)
		rng := c.rng(2)
		for i := 0; i < serviceReplays; i++ {
			spec, err := batchspec.Parse(strings.NewReader(deck[rng.IntN(len(deck))]))
			if err != nil {
				return nil, err
			}
			queries := spec.Queries()
			p, err := malardalen.Get(spec.Benchmarks[0])
			if err != nil {
				return nil, err
			}
			st.req++
			ls.replayQuery(r, rp, call, p, queries[rng.IntN(len(queries))], st.req)
		}
	}
	return r, nil
}

// checkService compares the first response to each spec with the
// in-process oracle: batchspec.Rows of Engine.AnalyzeBatch on the same
// spec, encoded as the NDJSON stream. A mismatching spec fails every
// request of it.
func checkService(c *config, r *run, st *serviceState, ls *layerStats) error {
	engines := map[string]*core.Engine{}
	distinct := map[batchspec.Row]bool{}
	bad := map[int]bool{}
	specs := slices.Sorted(maps.Keys(st.first))
	for _, spec := range specs {
		want, err := serviceOracle(c, ls, st.deck[spec], engines, distinct, r)
		if err != nil {
			return err
		}
		if !bytes.Equal(st.first[spec], want) {
			bad[spec] = true
			r.note("%s: response differs from the in-process batch", st.deck[spec])
		}
	}
	for _, resp := range st.resps {
		r.attempted++
		switch {
		case resp.err != nil:
			r.fail("%s: %v", st.deck[resp.spec], resp.err)
		case bad[resp.spec]:
			r.failed++
		default:
			r.rowsOK += resp.rows
			r.done = append(r.done, doneUnit{resp.at, resp.rows})
			r.latencies = append(r.latencies, ms(resp.latency))
			r.firstRows = append(r.firstRows, ms(resp.first))
		}
	}
	return nil
}

// serviceOracle runs one spec in process, as pwcet -batch -ndjson does,
// and records the distinct rows' pWCET ratios.
func serviceOracle(c *config, ls *layerStats, body string, engines map[string]*core.Engine,
	distinct map[batchspec.Row]bool, r *run) ([]byte, error) {
	spec, err := batchspec.Parse(strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, name := range spec.Benchmarks {
		e := engines[name]
		if e == nil {
			var p *program.Program
			if p, err = malardalen.Get(name); err != nil {
				return nil, err
			}
			if e, err = core.NewEngine(p, spec.EngineOptions(c.nproc)); err != nil {
				return nil, err
			}
			engines[name] = e
		}
		queries := spec.Queries()
		results, err := e.AnalyzeBatch(queries)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", name, err)
		}
		for i, row := range batchspec.Rows(name, queries, results) {
			sp := c.rec.begin(spRow, 0, 0)
			n := buf.Len()
			err := enc.Encode(row)
			c.rec.end(sp)
			ls.row(buf.Len() - n)
			if err != nil {
				return nil, err
			}
			if !distinct[row] {
				distinct[row] = true
				r.ratios = append(r.ratios, float64(results[i].PWCET)/float64(results[i].FaultFreeWCET))
			}
		}
	}
	return buf.Bytes(), nil
}

// metricsJSON is the part of the server's /metrics the benchmark reads.
type metricsJSON struct {
	Pool struct {
		Hits              uint64 `json:"hits"`
		Misses            uint64 `json:"misses"`
		Evictions         uint64 `json:"evictions"`
		ArtifactBytes     int64  `json:"artifact_bytes"`
		ArtifactEvictions uint64 `json:"artifact_evictions"`
	} `json:"engine_pool"`
	EnginePrep struct {
		Count uint64  `json:"count"`
		SumMs float64 `json:"sum_ms"`
	} `json:"engine_prep_latency"`
}

func getMetrics(hc *http.Client, url string) (*metricsJSON, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// readPoolMetrics copies the pool counters of /metrics into ls.
func readPoolMetrics(hc *http.Client, url string, ls *layerStats) error {
	m, err := getMetrics(hc, url)
	if err != nil {
		return err
	}
	ls.poolHits, ls.poolMisses = m.Pool.Hits, m.Pool.Misses
	ls.engineBuilds, ls.poolEvict = m.Pool.Misses, m.Pool.Evictions
	ls.evictions = m.Pool.ArtifactEvictions
	ls.enginePrep = time.Duration(m.EnginePrep.SumMs * float64(time.Millisecond))
	ls.artifactBytesPeak = max(ls.artifactBytesPeak, m.Pool.ArtifactBytes)
	return nil
}

// pollMetrics samples the pool's resident artifact bytes every 100ms
// until the returned stop function is called; stop waits for the
// poller to exit.
func pollMetrics(c *config, hc *http.Client, url string, ls *layerStats) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			sp := c.rec.begin("serve.metrics", 0, 0)
			m, err := getMetrics(hc, url)
			c.rec.end(sp)
			if err == nil {
				ls.artifactBytesPeak = max(ls.artifactBytesPeak, m.Pool.ArtifactBytes)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
