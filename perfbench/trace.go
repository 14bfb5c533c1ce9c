package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Times are Unix
// nanoseconds, so spans recorded in child processes line up with the
// parent's.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths call it unconditionally.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
	cost  time.Duration // time spent inside Begin and End
}

func newRecorder() *Recorder { return &Recorder{} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int64, req string) int64 {
	if r == nil {
		return 0
	}
	t0 := time.Now()
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: t0.UnixNano()})
	r.cost += time.Since(t0)
	r.mu.Unlock()
	return id
}

// End closes the span id.
func (r *Recorder) End(id int64) {
	if r == nil || id == 0 {
		return
	}
	t0 := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = t0.UnixNano()
	r.cost += time.Since(t0)
	r.mu.Unlock()
}

// Record adds a span whose times were measured elsewhere and returns its
// id.
func (r *Recorder) Record(name string, parent int64, req string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// Import appends spans recorded elsewhere (a child process), renumbering
// them and hanging their roots under parent.
func (r *Recorder) Import(spans []Span, parent int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := int64(len(r.spans))
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Cost is the time spent recording.
func (r *Recorder) Cost() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cost
}

// WriteFile stores the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LayerTime is the reduction of every span of one name.
type LayerTime struct {
	Name  string
	Count int
	Total float64 // seconds, summed durations
	Self  float64 // seconds, durations minus the time covered by children
}

// selfTimes reduces spans to per-name totals. A span's self time is its
// duration minus the part of its interval that the union of its children
// covers; children may overlap one another (parallel cells under one
// matrix call) and may run past the parent's end.
func selfTimes(spans []Span) []LayerTime {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*LayerTime{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += float64(d) / 1e9
		lt.Self += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e9
	}
	out := make([]LayerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of [start, end) covered by the union of the
// children's intervals.
func covered(start, end int64, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// printSelfTimes writes the per-layer self-time report.
func printSelfTimes(w io.Writer, spans []Span) {
	fmt.Fprintf(w, "self time by span (%d spans):\n", len(spans))
	fmt.Fprintf(w, "  %-26s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-26s %8d %12.4f %12.4f\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
}
