// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed against the analysis layers' public
// APIs, checks every result against an oracle, and prints the
// workload's metrics as the last line of standard output:
//
//	go run . --workload design-space --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is a separate run of the same workload and seed with an in-memory
// span recorder at every layer boundary and a stage replay of
// seed-sampled queries; it prints the per-layer metrics and writes the
// spans to .bench_build/spans/<workload>-<seed>.jsonl. See
// README.md for the workloads, the metrics and what each one measures.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
	// rec is the span recorder; nil when tracing is off.
	rec *recorder
}

// rng returns the deterministic generator of one named input stream,
// so adding a stream never perturbs another.
func (c *config) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

// timed reports whether the timed phase, started at start, is over.
func (c *config) timed(start time.Time) bool {
	return time.Since(start).Seconds() < c.seconds
}

// metric is one printed measurement.
type metric struct {
	name, unit string
	value      float64
}

// run is what a workload measured and checked.
type run struct {
	// setups are the durations of the repeated set-ups.
	setups []time.Duration
	// elapsed is the length of the timed phase; rowsOK the rows it
	// completed whose checks passed.
	elapsed time.Duration
	rowsOK  int
	// done lists every unit whose checks passed, in completion order;
	// windows, when set, are the ends (offsets into the timed phase) of
	// the workload's throughput windows.
	done    []doneUnit
	windows []time.Duration
	// windowUnits is the number of consecutive checked units in one
	// throughput window when the workload sets no windows of its own;
	// with neither, rows_per_s is the whole-run rate.
	windowUnits int
	// rssPeaks are the resident-set peaks (MiB) of the timed phase's
	// one-second windows.
	rssPeaks []float64
	// latencies and firstRows are per-unit samples in milliseconds.
	latencies, firstRows []float64
	// attempted and failed count units; failures lists why.
	attempted, failed int
	failures          []string
	// ratios holds pWCET / fault-free WCET of every distinct row.
	ratios []float64
	// layers is filled by a traced run only.
	layers *layerStats
}

// doneUnit is one checked unit: when it completed, as an offset into
// the timed phase, and how many rows it produced.
type doneUnit struct {
	at   time.Duration
	rows int
}

// rowsPerSecond is the median over the run's throughput windows of
// the checked rows completed per second, so a burst of interference
// from outside the benchmark moves it less than a whole-run mean. The
// windows are the workload's own (design-space rounds) or runs of
// r.windowUnits consecutive units. A run without windows, or shorter
// than two, reports its whole-run rate.
func (r *run) rowsPerSecond() float64 {
	rates := r.rateWindows()
	if len(rates) < 2 {
		return float64(r.rowsOK) / r.elapsed.Seconds()
	}
	return percentile(rates, 50)
}

// rateWindows returns the throughput window rates of the run.
func (r *run) rateWindows() []float64 {
	slices.SortFunc(r.done, func(a, b doneUnit) int { return cmp.Compare(a.at, b.at) })
	ends := r.windows
	if ends == nil {
		for i := r.windowUnits - 1; r.windowUnits > 0 && i < len(r.done); i += r.windowUnits {
			ends = append(ends, r.done[i].at)
		}
	}
	return windowRates(r.done, ends)
}

// windowRates splits the timed phase at the ascending window ends and
// returns the rows per second of each window, by completion time.
// Units after the last end are not counted.
func windowRates(done []doneUnit, ends []time.Duration) []float64 {
	rows := make([]int, len(ends))
	for _, u := range done {
		if i, _ := slices.BinarySearch(ends, u.at); i < len(ends) {
			rows[i] += u.rows
		}
	}
	rates := make([]float64, len(ends))
	var start time.Duration
	for i, end := range ends {
		rates[i] = float64(rows[i]) / (end - start).Seconds()
		start = end
	}
	return rates
}

// fail records a failed unit with its reason.
func (r *run) fail(format string, a ...any) {
	r.failed++
	r.note(format, a...)
}

// note records why a check failed; only the first few reasons are kept
// for the report.
func (r *run) note(format string, a ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*config) (*run, error){
	"design-space": designSpace,
	"tail-warm":    tailWarm,
	"service":      service,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	seed := fs.Int64("seed", 1, "workload seed")
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Float64Var(&c.seconds, "seconds", 25, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names())
		return 2
	}
	c.seed, c.trace, c.nproc = uint64(*seed), trace == 1, runtime.NumCPU()
	if c.trace {
		c.rec = newRecorder()
	}
	r, err := drive(&c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	var metrics []metric
	if c.trace {
		metrics = r.layers.metrics()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", c.workload, *seed))
		if err := c.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		r.layers.printShares(stdout)
	} else {
		if metrics, err = endToEnd(stdout, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "FAIL: %s\n", f)
	}
	if err := printResult(stdout, r, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func names() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(w io.Writer, r *run) ([]metric, error) {
	if r.attempted == 0 || len(r.latencies) == 0 {
		return nil, fmt.Errorf("timed phase completed no unit")
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	// max_rss_mb is the median over the timed phase's one-second
	// windows of the peak resident set, which GC timing moves less than
	// the single whole-run peak; a run too short for two windows
	// reports the whole-process peak.
	rss := percentile(r.rssPeaks, 50)
	if len(r.rssPeaks) < 2 {
		var err error
		if rss, err = statusMB("VmHWM"); err != nil {
			return nil, err
		}
	}
	pct, tailMs, beyond := tail(r.latencies)
	fmt.Fprintf(w, "latency_tail_ms is p%g of %d samples (%d beyond it); %d distinct rows in the geomean\n",
		pct, len(r.latencies), beyond, len(r.ratios))
	fmt.Fprintf(w, "first row ms: p10 %.4g, p25 %.4g, p50 %.4g, p75 %.4g, p90 %.4g\n", percentile(r.firstRows, 10),
		percentile(r.firstRows, 25), percentile(r.firstRows, 50), percentile(r.firstRows, 75), percentile(r.firstRows, 90))
	fmt.Fprintf(w, "setup_s is the median of %d set-ups (min %.4g s, max %.4g s)\n", len(setups),
		percentile(setups, 0), percentile(setups, 100))
	if rates := r.rateWindows(); len(rates) > 0 {
		fmt.Fprintf(w, "rows_per_s windows: %d, p10 %.4g, p50 %.4g, p90 %.4g; whole run %.4g\n", len(rates),
			percentile(rates, 10), percentile(rates, 50), percentile(rates, 90), float64(r.rowsOK)/r.elapsed.Seconds())
	}
	return []metric{
		{"setup_s", "s", percentile(setups, 50)},
		{"rows_per_s", "1/s", r.rowsPerSecond()},
		{"latency_p50_ms", "ms", percentile(r.latencies, 50)},
		{"latency_tail_ms", "ms", tailMs},
		{"first_row_p50_ms", "ms", percentile(r.firstRows, 50)},
		{"success_rate", "ratio", float64(r.attempted-r.failed) / float64(r.attempted)},
		{"pwcet_ratio_geomean", "ratio", geomean(r.ratios)},
		{"max_rss_mb", "MiB", rss},
	}, nil
}

// printResult prints the result object as the last line of output.
func printResult(w io.Writer, r *run, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range metrics {
		if !validMetricName(m.name) {
			return fmt.Errorf("invalid metric name %q", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// shuffled returns a seed-shuffled copy of s.
func shuffled[T any](rng *rand.Rand, s []T) []T {
	out := slices.Clone(s)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
