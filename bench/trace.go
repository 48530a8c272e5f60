package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program under test. Spans of one op share its Op id; Parent is the
// id of the enclosing span, -1 for an op's root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Op     int               `json:"op"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"` // since the recorder was created
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (-1 when not recording).
func (r *recorder) start(parent, op int, name string) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes span id, attaching alternating key, value attributes.
func (r *recorder) end(id int, attrs ...string) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]string)
		}
		s.Attrs[attrs[i]] = attrs[i+1]
	}
}

// opTrace is the handle a target gets for one op: spans it starts become
// children of the op's root span. The zero value records nothing.
type opTrace struct {
	rec      *recorder
	root, op int
}

func (t opTrace) start(name string) int       { return t.rec.start(t.root, t.op, name) }
func (t opTrace) end(id int, attrs ...string) { t.rec.end(id, attrs...) }

// selfTimes returns, per span id, the span's duration minus the part of it
// that its direct children cover (overlapping children are not counted
// twice; a child reaching outside its parent is clipped).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is the per-name aggregate printed after a traced run and
// stored at the head of the span file.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	var out []*spanSummary // first-seen order; sorted by name below
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
			out = append(out, a)
		}
		a.Count++
		a.TotalMS += float64(s.End-s.Start) / 1e6
		a.SelfMS += float64(self[s.ID]) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	flat := make([]spanSummary, len(out))
	for i, a := range out {
		flat[i] = *a
	}
	return flat
}

// write stores the spans and their summary as JSON under dir.
func (r *recorder) write(dir, workload string, prov provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(struct {
		Workload   string        `json:"workload"`
		Provenance provenance    `json:"provenance"`
		Summary    []spanSummary `json:"summary"`
		Spans      []span        `json:"spans"`
	}{workload, prov, summarize(r.spans), r.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
