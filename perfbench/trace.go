package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one unit
// of work (a program grid, a query or an HTTP request) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the whole run. A nil *recorder is
// a valid, disabled recorder: every method is a no-op, so the untraced
// run pays one nil check per boundary.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already measured interval as a closed span.
func (r *recorder) add(name string, parent, req int, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return len(r.spans)
}

// totals returns, per span name, the summed duration and the count of
// closed spans.
func (r *recorder) totals() (busy map[string]time.Duration, count map[string]int) {
	busy, count = map[string]time.Duration{}, map[string]int{}
	if r == nil {
		return busy, count
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		busy[s.Name] += time.Duration(s.End - s.Start)
		count[s.Name]++
	}
	return busy, count
}

// write stores the spans as JSON lines in path, creating its directory.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
