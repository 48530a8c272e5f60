package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %g, want 95", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestQuartileSpread pins quartileSpread to Python's
// statistics.quantiles(xs, n=4): for 1..10 it gives [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		better      string
		base, value float64
		want        float64
	}{
		{"lower", 100, 110, 0.10}, {"lower", 100, 90, -0.10},
		{"higher", 100, 90, 0.10}, {"higher", 100, 125, -0.25},
	} {
		if got := worsening(c.better, c.base, c.value); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%s, %g, %g) = %g, want %g", c.better, c.base, c.value, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 3, Parent: 1, Start: 15, End: 25},    // grandchild: must not count against the root
		{ID: 4, Parent: 0, Start: 90, End: 120},   // reaches outside the root: clipped to 10
		{ID: 5, Parent: -1, Start: 200, End: 230}, // second root, no children
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 10, 30, 10, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.start(-1, 0, "op")
	r.end(id, "k", "v")
	if id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	tr := opTrace{}
	tr.end(tr.start("x"))
}
