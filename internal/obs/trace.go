package obs

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of a request. Spans form a tree: NewTrace
// starts a root, Trace starts a child of the span active in ctx. All
// methods are nil-safe — code instruments itself unconditionally with
// `ctx, sp := obs.Trace(ctx, "tool.stage"); defer sp.End()` and pays
// almost nothing when no trace is active (one context value lookup).
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span (point counts, worker
// counts, chosen method).
type Attr struct {
	Key, Value string
}

type spanCtxKey struct{}

// NewTrace starts a root span and returns a context that makes it the
// active span: every obs.Trace below inherits into its tree. Unlike
// Trace, NewTrace always records — it is the serving layer's explicit
// opt-in, one per request.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Trace starts a child of the active span in ctx, returning a context
// with the child active. When no trace is active it returns ctx unchanged
// and a nil span whose methods no-op, so library code can instrument
// itself without caring whether anyone is watching.
func Trace(ctx context.Context, name string) (context.Context, *Span) {
	parent := ActiveSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// ActiveSpan returns the span active in ctx, or nil.
func ActiveSpan(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// End stops the span's clock. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Duration returns the recorded duration (time since start for a span
// still running).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SetAttr annotates the span. Safe on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value. Safe on nil, and
// then free: the untraced path formats nothing.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetAttrHit annotates the span with whether a memo or cache lookup was
// served without building ("hit") or had to build ("miss"). Safe on nil.
func (s *Span) SetAttrHit(key string, hit bool) {
	if s == nil {
		return
	}
	v := "miss"
	if hit {
		v = "hit"
	}
	s.SetAttr(key, v)
}

// SpanTree is an immutable JSON-ready snapshot of a span and its
// children, served at /debug/trace/last and printed for slow requests.
type SpanTree struct {
	Name       string      `json:"name"`
	DurationMS float64     `json:"duration_ms"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanTree `json:"children,omitempty"`
}

// Tree snapshots the span (typically after End). Safe on nil.
func (s *Span) Tree() *SpanTree {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	t := &SpanTree{
		Name:       s.name,
		DurationMS: float64(s.dur.Nanoseconds()) / 1e6,
		Attrs:      append([]Attr(nil), s.attrs...),
	}
	if !s.ended {
		t.DurationMS = float64(time.Since(s.start).Nanoseconds()) / 1e6
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		t.Children = append(t.Children, c.Tree())
	}
	return t
}

// StageNames returns the tree's span names in preorder — the flat
// "parse → compute → encode" view tests and logs assert on.
func (t *SpanTree) StageNames() []string {
	if t == nil {
		return nil
	}
	names := []string{t.Name}
	for _, c := range t.Children {
		names = append(names, c.StageNames()...)
	}
	return names
}

// Render returns an indented one-line-per-span rendering for logs:
//
//	kdv 182.4ms tool=kdv
//	  kdv.parse 0.1ms
//	  kdv.compute 180.9ms
//	    parallel.for 180.8ms n=128 workers=8
func (t *SpanTree) Render() string {
	var b strings.Builder
	t.render(&b, 0)
	return strings.TrimRight(b.String(), "\n")
}

func (t *SpanTree) render(b *strings.Builder, depth int) {
	if t == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %.1fms", t.Name, t.DurationMS)
	for _, a := range t.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, c := range t.Children {
		c.render(b, depth+1)
	}
}
