package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tailPercentiles are the candidate percentiles for latency_tail_ms,
// highest first. The reported tail is the highest of them that still
// has at least minBeyond samples beyond its rank. Fixed candidates keep
// more than minBeyond samples beyond the tail at most sample counts,
// which steadies it; the runs are sized so their sample counts sit well
// inside one candidate's range.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples the reported tail percentile must
// have beyond it, so a few slow samples cannot set the tail.
const minBeyond = 10

// rank returns the 0-based nearest-rank index of percentile pct in n
// sorted samples.
func rank(pct float64, n int) int {
	// The tolerance keeps float rounding (99.9/100*10000 is just above
	// 9990) from moving an exact rank up by one.
	i := int(math.Ceil(pct/100*float64(n)-1e-9)) - 1
	return max(0, min(i, n-1))
}

// percentile returns the nearest-rank percentile of the samples.
func percentile(samples []float64, pct float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	return s[rank(pct, len(s))]
}

// tail applies the tail rule: the highest candidate percentile with at
// least minBeyond samples beyond it. When no candidate qualifies (fewer
// than 2*minBeyond samples) it reports the median and how many samples
// lie beyond it.
func tail(samples []float64) (pct, value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, math.NaN(), 0
	}
	s := sortedCopy(samples)
	for _, p := range tailPercentiles {
		if i := rank(p, n); n-1-i >= minBeyond {
			return p, s[i], n - 1 - i
		}
	}
	i := rank(50, n)
	return 50, s[i], n - 1 - i
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// geomean is the geometric mean of positive values, computed in log
// space so long products cannot overflow. It returns NaN for an empty
// input or any non-positive value.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	// Summing in sorted order makes the result independent of the
	// order the values were collected in.
	var sum float64
	for _, x := range sortedCopy(v) {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// validMetricName reports whether name is a legal metric name: it
// starts with a letter or digit, has at most 64 characters and uses
// only letters, digits, '_', '.' and '-'.
func validMetricName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, r := range name {
		alnum := r < 128 && (r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// statusMB reads one memory field (VmRSS, VmHWM) of /proc/self/status,
// in MiB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}

// rssEvery is the resident-set sampling period of the timed phase.
const rssEvery = 50 * time.Millisecond

// rssSampler records the process's resident set size during the timed
// phase and keeps the peak of every one-second window.
type rssSampler struct {
	done  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

// sampleRSS starts sampling; stop ends it and returns the window peaks.
func sampleRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		start, peak := time.Now(), 0.0
		for {
			select {
			case <-s.done:
				return
			case now := <-tick.C:
				if mb, err := statusMB("VmRSS"); err == nil {
					peak = max(peak, mb)
				}
				if now.Sub(start) >= time.Second {
					s.peaks = append(s.peaks, peak)
					start, peak = now, 0
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak of each whole window.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	s.wg.Wait()
	return s.peaks
}
