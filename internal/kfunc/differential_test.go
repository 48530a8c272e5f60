package kfunc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"geostat/internal/geom"
)

// lattice returns the side×side points (i·step, j·step) — rounded
// coordinates, where many pairs sit exactly on a threshold.
func lattice(side int, step float64) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for j := 0; j < side; j++ {
		for i := 0; i < side; i++ {
			pts = append(pts, geom.Point{X: float64(i) * step, Y: float64(j) * step})
		}
	}
	return pts
}

// TestCurvePredicatePinned pins the package's one distance predicate,
// d² <= s·s, on data where sqrt(d²) <= s disagrees with it: on a 0.1
// lattice dx = 0.8, dy = 0.6000000000000001 has d² one ulp above 1 but
// sqrt(d²) == 1 (likewise at 0.5, 2 and 4). The curve must count what
// Naive and the index range counts count.
func TestCurvePredicatePinned(t *testing.T) {
	dx, dy := 0.8, 0.6000000000000001
	if d2 := dx*dx + dy*dy; !(d2 > 1 && math.Sqrt(d2) <= 1) {
		t.Fatalf("fixture lost its boundary pair: d2 = %v", d2)
	}
	pts := lattice(50, 0.1)
	thresholds := []float64{0.5, 1, 2, 4}
	want, err := NaiveCurve(cols(pts), thresholds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := curveOf(pts, thresholds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Curve = %v, NaiveCurve = %v", got, want)
	}
	for i, s := range thresholds {
		if g := GridIndexed(pts, s); g != want[i] {
			t.Errorf("GridIndexed(%v) = %d, Naive = %d", s, g, want[i])
		}
	}
	// The cross curve and the space-time surface share the predicate.
	xs, ys := geom.SplitXY(pts)
	cross, err := CrossCurve(xs, ys, xs, ys, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, len(pts))
	surf, err := STSurface(xs, ys, times, thresholds, []float64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range thresholds {
		if cross[i] != want[i]+len(pts) { // a == b: the n self-pairs count
			t.Errorf("CrossCurve[%d] = %d, want %d", i, cross[i], want[i]+len(pts))
		}
		if surf[i] != want[i] {
			t.Errorf("STSurface[%d] = %d, want %d", i, surf[i], want[i])
		}
	}
}

// TestCurveDifferential: on the degenerate and badly scaled inputs the
// cell list and the bucket table have to survive, the one-pass curve is
// NaiveCurve and every single-threshold index count, at every threshold;
// it does not depend on the worker count; and a band-partitioned run
// (the shard tier's thresholds= unit) merges to the single-call result.
func TestCurveDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cloud := func(n int, w, h, ox, oy float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: ox + r.Float64()*w, Y: oy + r.Float64()*h}
		}
		return pts
	}
	coincident := make([]geom.Point, 40)
	for i := range coincident {
		coincident[i] = geom.Point{X: 3.25, Y: -7.5}
	}
	uniform := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name       string
		pts        []geom.Point
		thresholds []float64
	}{
		{"n=0", nil, uniform},
		{"n=1", cloud(1, 10, 10, 0, 0), uniform},
		{"n=2", []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}, []float64{4.9, 5, 5.1}},
		{"coincident", coincident, []float64{0, 1}},
		{"single-row", cloud(300, 100, 0, 0, 5), uniform},
		{"single-column", cloud(300, 0, 100, 5, 0), uniform},
		{"utm-offset", cloud(400, 100, 100, 5e5, 4.2e6), uniform},
		{"one-cell", cloud(200, 10, 10, 0, 0), []float64{50, 500, 5000}},
		{"no-pairs", lattice(15, 10), []float64{0.001, 0.002}},
		{"non-uniform", cloud(400, 60, 60, 0, 0), []float64{0.01, 0.5, 0.55, 3, 3.0000001, 17}},
		{"band-not-smallest", cloud(400, 60, 60, 0, 0), []float64{6, 6.5, 7, 12}},
		{"many-thresholds", cloud(300, 40, 40, 0, 0), linspace(0.05, 10, 200)},
		{"lattice", lattice(20, 0.1), []float64{0.1, 0.2, 0.5, 1, 2}},
		{"nan-point", append(cloud(100, 10, 10, 0, 0), geom.Point{X: math.NaN(), Y: 1}), uniform},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := NaiveCurve(cols(c.pts), c.thresholds)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, -1} {
				got, err := curveOf(c.pts, c.thresholds, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: Curve = %v, NaiveCurve = %v", workers, got, want)
				}
			}
			if c.name != "nan-point" { // the tree indexes do not take NaN coordinates
				for i, s := range c.thresholds {
					for name, count := range map[string]func([]geom.Point, float64) int{
						"grid": GridIndexed, "kdtree": KDTreeIndexed, "balltree": BallTreeIndexed, "rtree": RTreeIndexed,
					} {
						if got := count(c.pts, s); got != want[i] {
							t.Errorf("%s(s=%v) = %d, want %d", name, s, got, want[i])
						}
					}
				}
			}
			// Three bands, each its own call, concatenated.
			var merged []int
			d := len(c.thresholds)
			for _, cut := range [][2]int{{0, d / 3}, {d / 3, 2 * d / 3}, {2 * d / 3, d}} {
				if cut[0] == cut[1] {
					continue
				}
				band, err := curveOf(c.pts, c.thresholds[cut[0]:cut[1]], 2)
				if err != nil {
					t.Fatal(err)
				}
				merged = append(merged, band...)
			}
			if !reflect.DeepEqual(merged, want) {
				t.Errorf("band-partitioned = %v, single call = %v", merged, want)
			}
		})
	}
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// TestBinnerExact: bin(v) is the first edge not below v for every value
// up to the last edge — on the edges themselves, one ulp either side of
// them, and for edge lists the bucket table resolves badly (clustered
// edges, a zero edge, an infinite one).
func TestBinnerExact(t *testing.T) {
	for _, edges := range [][]float64{
		{1},
		{0},
		{0, 1e-300, 1},
		{1, 4, 9, 16},
		{0.25, 0.2500000001, 0.26, 100},
		{1e-9, 1e9},
		{1, math.Inf(1)},
		linspace(0.1, 50, 300),
	} {
		b := newBinner(edges)
		var probes []float64
		for _, e := range edges {
			probes = append(probes, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)), e/2, e/3)
		}
		for _, v := range probes {
			if !(v >= 0 && v <= b.max) {
				continue
			}
			want := 0
			for v > edges[want] {
				want++
			}
			if got := b.bin(v); got != want {
				t.Errorf("edges %v...: bin(%v) = %d, want %d", edges[:min(len(edges), 4)], v, got, want)
			}
		}
	}
}

// TestHotPathAllocs: the sweep and the pair binner it calls allocate
// nothing once the cells are built — what lets a worker run simulation
// after simulation on reused buffers.
func TestHotPathAllocs(t *testing.T) {
	pts := clustered(24, 2000)
	xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	bins := squaredBinner(linspace(0.5, 12, 24))
	hist := make([]int64, len(bins.edges))
	var c cells
	c.build(xs, ys, math.Sqrt(bins.max))
	t.Run("binner.count", func(t *testing.T) {
		if got := testing.AllocsPerRun(10, func() { bins.count(xs, ys, 50, 50, hist) }); got != 0 {
			t.Errorf("binner.count allocates %v times per call", got)
		}
	})
	t.Run("cells.sweep", func(t *testing.T) {
		if got := testing.AllocsPerRun(10, func() { c.sweep(0, len(xs), bins, hist) }); got != 0 {
			t.Errorf("cells.sweep allocates %v times per call", got)
		}
	})
}
