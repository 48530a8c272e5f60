package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default bucket layout for request/stage latency
// histograms: upper bounds in seconds from 1ms to 30s, roughly
// logarithmic. p50/p90/p99 of a typical serving distribution land well
// inside the ladder; everything slower than 30s is lumped into +Inf.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds — no locks, no allocation — so it can sit on a hot request
// path. Bucket bounds are fixed at construction; counts are cumulative in
// the Prometheus sense only at export time (internally each bucket holds
// its own count).
type Histogram struct {
	// bounds are the inclusive upper bounds (seconds), strictly increasing.
	bounds []float64
	// counts[i] counts observations v with bounds[i-1] < v <= bounds[i];
	// counts[len(bounds)] is the +Inf bucket.
	counts []atomic.Int64
	sumNS  atomic.Int64
}

// NewHistogram returns a histogram over the given upper bounds (seconds).
// Bounds must be strictly increasing; nil means LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	// First bucket whose upper bound covers s; SearchFloat64s returns
	// len(bounds) when s exceeds every bound, which is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed durations in seconds.
func (h *Histogram) Sum() float64 {
	return time.Duration(h.sumNS.Load()).Seconds()
}

// snapshot returns the per-bucket counts, total and sum with one pass of
// atomic loads (values may skew slightly under concurrent writes, which
// Prometheus scrapes tolerate by design).
func (h *Histogram) snapshot() (buckets []int64, count int64, sum float64) {
	buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		count += buckets[i]
	}
	return buckets, count, time.Duration(h.sumNS.Load()).Seconds()
}
