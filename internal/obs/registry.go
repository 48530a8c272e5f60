package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension (e.g. tool="kdv"). Variable dimensions go
// in labels, never in the metric name — see the package naming convention.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds named metric families and renders them in Prometheus
// text exposition format. Metric lookups are get-or-create: asking twice
// for the same (name, labels) returns the same metric, so handlers can
// resolve metrics per request without double registration. A Registry is
// typically per-server: tests spin up many servers, and process-wide state
// would collide.
//
// Registration panics on a name that violates the naming convention or on
// a kind/help/buckets mismatch with an existing family: both are
// programming errors the geolint obsname analyzer catches statically, and
// failing fast beats exporting a corrupt families table.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       string    // "counter", "gauge" or "histogram"
	buckets    []float64 // histogram families only: bounds fixed at first registration
	series     map[string]*series
}

type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64 // CounterFunc / GaugeFunc callback
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.series("counter", name, help, nil, nil, labels).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.series("gauge", name, help, nil, nil, labels).g
}

// Histogram returns the histogram for (name, labels), creating it on
// first use. All series of one family share the bucket bounds of the
// family's first registration (nil = LatencyBuckets); later calls may
// pass nil to reuse them, and panic on differing non-nil bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.series("histogram", name, help, buckets, nil, labels).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic counts owned elsewhere (e.g. cache eviction totals
// kept by the cache itself). fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.series("counter", name, help, nil, fn, labels)
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.series("gauge", name, help, nil, fn, labels)
}

// series returns the series for (name, labels) under the family of the
// given kind, creating family and series as needed. Lookup, contract
// checks, and creation all happen under r.mu so concurrent first touches
// of one series resolve to a single metric — the returned series is
// fully initialized (c/g/h set per kind, or fn for Func variants).
func (r *Registry) series(kind, name, help string, buckets []float64, fn func() int64, labels []Label) *series {
	if err := ValidMetricName(kind, name); err != nil {
		panic(err)
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := labelKey(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		if kind == "histogram" {
			if buckets == nil {
				buckets = LatencyBuckets
			}
			f.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Errorf("obs: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		if f.help != help {
			panic(fmt.Errorf("obs: %s registered with help %q, requested with %q", name, f.help, help))
		}
		if kind == "histogram" && buckets != nil && !equalBounds(f.buckets, buckets) {
			panic(fmt.Errorf("obs: %s registered with buckets %v, requested with %v", name, f.buckets, buckets))
		}
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls}
		f.series[key] = s
	}
	if fn != nil {
		s.fn = fn
		return s
	}
	switch {
	case kind == "counter" && s.c == nil:
		s.c = &Counter{}
	case kind == "gauge" && s.g == nil:
		s.g = &Gauge{}
	case kind == "histogram" && s.h == nil:
		s.h = NewHistogram(f.buckets)
	}
	return s
}

// equalBounds reports whether two bucket ladders are identical.
func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //lint:allow floateq bounds are config literals; identity, not arithmetic, is compared
			return false
		}
	}
	return true
}

// labelKey is the canonical identity of a label set (keys pre-sorted).
func labelKey(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4). Output order is deterministic: families sorted
// by name, series sorted by label key string.
//
// The registry lock is held only while snapshotting the family and
// series maps, never across writes: w is the scrape socket in
// production, and a slow scraper must not stall every metric
// get-or-create in request handlers (locksafe enforces this). The
// pointers copied out stay safe to read unlocked — family metadata is
// immutable after creation and series values are read through atomics
// or the histogram's own lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type famSnapshot struct {
		f      *family
		series []*series
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]famSnapshot, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, 0, len(keys))
		for _, k := range keys {
			ss = append(ss, f.series[k])
		}
		snaps = append(snaps, famSnapshot{f: f, series: ss})
	}
	r.mu.Unlock()

	for _, snap := range snaps {
		f := snap.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range snap.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case f.kind == "histogram" && s.h != nil:
		buckets, count, sum := s.h.snapshot()
		cum := int64(0)
		for i, c := range buckets {
			cum += c
			le := "+Inf"
			if i < len(s.h.bounds) {
				le = formatFloat(s.h.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(s.labels, L("le", le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(s.labels), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(s.labels), count)
		return err
	default:
		var v int64
		switch {
		case s.fn != nil:
			v = s.fn()
		case s.c != nil:
			v = s.c.Value()
		case s.g != nil:
			v = s.g.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(s.labels), v)
		return err
	}
}

// labelString renders {k1="v1",k2="v2"} (empty string for no labels).
// extra labels (the histogram le) are appended after the sorted base set.
func labelString(ls []Label, extra ...Label) string {
	all := append(append([]Label(nil), ls...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes backslash, quote and newline per the exposition
// format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes backslash and newline in HELP text per the
// exposition format (quotes are legal there, unlike in label values).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
