// Command benchjson records and compares benchmark baselines.
//
// Record mode (default) converts `go test -bench` text output (read
// from stdin) into a JSON benchmark baseline (written to stdout), the
// format the CI perf-tracking step records as BENCH_<pr>.json:
//
//	go test -run '^$' -bench 'Sweep' . | benchjson -label pr10 > BENCH_pr10.json
//
// Each benchmark line
//
//	BenchmarkComputeFMMWorkers/workers=4-8   100  1234567 ns/op  12 B/op
//
// becomes one entry with the name, iteration count, ns/op, and any
// further metric pairs (unit -> value). Context lines (goos, goarch,
// pkg, cpu) are captured into the header.
//
// Compare mode diffs a freshly measured run against a committed
// baseline and fails on regressions — CI's perf gate:
//
//	go test -run '^$' -bench '...' . | benchjson -compare BENCH_pr10.json -threshold 25
//
// Benchmarks are matched by name with the trailing GOMAXPROCS suffix
// ("-8") stripped, so baselines recorded on machines with different
// core counts still compare. The exit status is 1 when any benchmark
// present in both runs slowed down by more than the threshold
// percentage of ns/op, or when the two runs share no benchmark at all
// (a misconfigured gate must not pass vacuously); benchmarks that
// appear on only one side are reported but do not fail the gate.
//
// By default the comparison is absolute: current ns/op against
// baseline ns/op, which assumes comparable machines. The -normalize
// flag makes the gate machine-speed independent by electing one
// benchmark of the run as the in-run speed reference:
//
//	... | benchjson -compare BENCH_pr10.json -threshold 25 -normalize BenchmarkFMM
//
// Every benchmark's ns/op is divided by the reference's ns/op OF THE
// SAME RUN, and the threshold applies to the ratio's change instead of
// the raw ns/op change — a uniformly 2x slower CI runner moves every
// ratio by ~0%, while a genuine hot-path regression moves its
// benchmark's ratio as much as it moves its ns/op. The reference must
// be present in both runs (the gate fails otherwise: a normalization
// anchor that silently disappears would un-gate everything) and is
// itself exempt from the threshold — its ratio is 1 by construction —
// so it also does not count toward the shared-benchmark overlap: a run
// whose only overlap with the baseline is the reference fails like a
// zero-overlap run instead of passing vacuously. The absolute mode
// remains the fallback when -normalize is not given.
//
// With -allocthreshold the gate additionally compares the allocs/op
// metric of benchmarks run under `go test -benchmem`: any shared
// benchmark whose allocation count grew by more than the given
// percentage fails the gate. Allocation counts are deterministic
// per-machine-class (never normalized — a runner's speed cannot change
// how often the code allocates), which makes this the cheapest
// regression signal the gate has; benchmarks without the metric on
// both sides are skipped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Baseline is the serialized benchmark record.
type Baseline struct {
	Label   string            `json:"label,omitempty"`
	Context map[string]string `json:"context,omitempty"`
	Results []Result          `json:"results"`
}

// Result is one benchmark measurement.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "", "baseline label recorded in the output (e.g. pr4)")
	compare := fs.String("compare", "", "baseline JSON file to compare stdin against (compare mode)")
	threshold := fs.Float64("threshold", 25, "compare mode: maximum tolerated ns/op regression in percent")
	normalize := fs.String("normalize", "", "compare mode: in-run reference benchmark; regressions are judged on ns/op ratios to it (machine-speed independent)")
	allocThreshold := fs.Float64("allocthreshold", 0, "compare mode: maximum tolerated allocs/op regression in percent (0 disables the alloc gate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintf(stderr, "benchjson: -threshold %g must be positive\n", *threshold)
		fs.Usage()
		return 2
	}
	if *normalize != "" && *compare == "" {
		fmt.Fprintln(stderr, "benchjson: -normalize requires -compare")
		fs.Usage()
		return 2
	}
	if *allocThreshold < 0 {
		fmt.Fprintf(stderr, "benchjson: -allocthreshold %g must not be negative\n", *allocThreshold)
		fs.Usage()
		return 2
	}
	if *allocThreshold > 0 && *compare == "" {
		fmt.Fprintln(stderr, "benchjson: -allocthreshold requires -compare")
		fs.Usage()
		return 2
	}

	current, err := parse(bufio.NewScanner(stdin), *label)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}

	if *compare != "" {
		ok, err := compareBaselines(stdout, *compare, current, *threshold, *normalize, *allocThreshold)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(current); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// parse consumes go test -bench output line by line.
func parse(sc *bufio.Scanner, label string) (*Baseline, error) {
	base := &Baseline{Label: label, Context: map[string]string{}, Results: []Result{}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "), strings.HasPrefix(line, "ok\t"):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			base.Context[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			r, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			base.Results = append(base.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(base.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return base, nil
}

// parseBenchLine splits "BenchmarkName-P N val unit [val unit]...".
func parseBenchLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("iteration count in %q: %w", line, err)
	}
	r := Result{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("metric value in %q: %w", line, err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = val
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = val
	}
	return r, nil
}

// procSuffix matches the trailing "-P" GOMAXPROCS suffix of a
// benchmark name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// normalizeName strips the GOMAXPROCS suffix so runs from machines
// with different core counts compare by benchmark identity.
func normalizeName(name string) string {
	return procSuffix.ReplaceAllString(name, "")
}

// compareBaselines diffs current against the baseline file and prints
// a per-benchmark table. It returns ok = false when any shared
// benchmark regressed beyond the threshold or when no benchmark is
// shared at all. With an empty normalize the deltas are absolute ns/op
// changes; otherwise normalize names the in-run reference benchmark
// and deltas are changes of the ns/op ratio to that reference (see the
// package comment).
func compareBaselines(stdout io.Writer, baselinePath string, current *Baseline, threshold float64, normalize string, allocThreshold float64) (bool, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	baseline := &Baseline{}
	if err := json.Unmarshal(raw, baseline); err != nil {
		return false, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	ref := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		ref[normalizeName(r.Name)] = r
	}

	// In normalized mode every ns/op is divided by its own run's
	// reference ns/op before comparing, canceling machine speed.
	refName := normalizeName(normalize)
	baseDiv, curDiv := 1.0, 1.0
	if normalize != "" {
		baseRef, okBase := ref[refName]
		var curRef Result
		okCur := false
		for _, cur := range current.Results {
			if normalizeName(cur.Name) == refName {
				curRef, okCur = cur, true
				break
			}
		}
		switch {
		case !okBase:
			return false, fmt.Errorf("normalization reference %q missing from baseline %s", refName, baselinePath)
		case !okCur:
			return false, fmt.Errorf("normalization reference %q missing from the current run", refName)
		case baseRef.NsPerOp <= 0 || curRef.NsPerOp <= 0:
			return false, fmt.Errorf("normalization reference %q has non-positive ns/op", refName)
		}
		baseDiv, curDiv = baseRef.NsPerOp, curRef.NsPerOp
		fmt.Fprintf(stdout, "normalized to %s: baseline %.0f ns/op, current %.0f ns/op\n",
			refName, baseDiv, curDiv)
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\tbaseline ns/op\tcurrent ns/op\tdelta\tstatus\t\n")
	shared, regressions := 0, 0
	allocShared, allocRegressions := 0, 0
	var allocRows []string
	seen := make(map[string]bool, len(current.Results))
	for _, cur := range current.Results {
		name := normalizeName(cur.Name)
		seen[name] = true
		base, ok := ref[name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.0f\t-\tnew\t\n", name, cur.NsPerOp)
			continue
		}
		if allocThreshold > 0 {
			if row, hasAllocs, regressed := compareAllocs(name, base, cur, allocThreshold); hasAllocs {
				allocShared++
				allocRows = append(allocRows, row)
				if regressed {
					allocRegressions++
				}
			}
		}
		if normalize != "" && name == refName {
			// The reference is exempt from the threshold (its ratio is 1
			// by construction), so it must not count as shared either —
			// a gate whose only overlap is its own anchor compares
			// nothing and must fail below, not pass vacuously.
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t-\treference\t\n", name, base.NsPerOp, cur.NsPerOp)
			continue
		}
		shared++
		if base.NsPerOp <= 0 {
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t-\tskipped (zero baseline)\t\n", name, base.NsPerOp, cur.NsPerOp)
			continue
		}
		baseVal, curVal := base.NsPerOp/baseDiv, cur.NsPerOp/curDiv
		delta := 100 * (curVal - baseVal) / baseVal
		status := "ok"
		if delta > threshold {
			status = fmt.Sprintf("REGRESSION (> %g%%)", threshold)
			regressions++
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%s\t\n", name, base.NsPerOp, cur.NsPerOp, delta, status)
	}
	for _, r := range baseline.Results {
		if name := normalizeName(r.Name); !seen[name] {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t-\tmissing from current run\t\n", name, r.NsPerOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}

	if allocThreshold > 0 {
		atw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(atw, "benchmark\tbaseline allocs/op\tcurrent allocs/op\tdelta\tstatus\t\n")
		for _, row := range allocRows {
			fmt.Fprint(atw, row)
		}
		if err := atw.Flush(); err != nil {
			return false, err
		}
		if allocShared == 0 {
			fmt.Fprintf(stdout, "no shared allocs/op metrics between %s and the current run — run the benchmarks with -benchmem\n", baselinePath)
			return false, nil
		}
	}

	refNote := ""
	if normalize != "" {
		refNote = " (the normalization reference does not count)"
	}
	switch {
	case shared == 0:
		fmt.Fprintf(stdout, "no shared benchmarks between %s and the current run%s — the gate cannot pass vacuously\n", baselinePath, refNote)
		return false, nil
	case regressions > 0 || allocRegressions > 0:
		if regressions > 0 {
			fmt.Fprintf(stdout, "%d of %d shared benchmarks regressed beyond %g%% ns/op\n", regressions, shared, threshold)
		}
		if allocRegressions > 0 {
			fmt.Fprintf(stdout, "%d of %d shared benchmarks regressed beyond %g%% allocs/op\n", allocRegressions, allocShared, allocThreshold)
		}
		return false, nil
	default:
		fmt.Fprintf(stdout, "all %d shared benchmarks within %g%% of %s\n", shared, threshold, baselinePath)
		return true, nil
	}
}

// compareAllocs diffs one benchmark's allocs/op metric. It returns the
// formatted table row, whether both sides carried the metric, and
// whether the regression exceeds the threshold. The delta denominator
// is clamped to one allocation so a zero-alloc baseline still gates
// (any new allocation on a formerly allocation-free benchmark is an
// infinite relative regression).
func compareAllocs(name string, base, cur Result, threshold float64) (row string, hasAllocs, regressed bool) {
	baseA, okBase := base.Metrics["allocs/op"]
	curA, okCur := cur.Metrics["allocs/op"]
	if !okBase || !okCur {
		return "", false, false
	}
	denom := baseA
	if denom < 1 {
		denom = 1
	}
	delta := 100 * (curA - baseA) / denom
	status := "ok"
	if delta > threshold {
		status = fmt.Sprintf("REGRESSION (> %g%%)", threshold)
		regressed = true
	}
	return fmt.Sprintf("%s\t%.0f\t%.0f\t%+.1f%%\t%s\t\n", name, baseA, curA, delta, status), true, regressed
}
