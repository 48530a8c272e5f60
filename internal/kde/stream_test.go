package kde

import (
	"math/rand"
	"strings"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

func TestStreamValidation(t *testing.T) {
	grid := geom.NewPixelGrid(box, 10, 10)
	if _, err := NewStream(kernel.Kernel{}, grid); err == nil {
		t.Error("zero kernel accepted")
	}
	if _, err := NewStream(kernel.MustNew(kernel.Gaussian, 5), grid); err == nil {
		t.Error("Gaussian accepted")
	}
	if _, err := NewStream(kernel.MustNew(kernel.Quartic, 5), geom.PixelGrid{}); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestStreamAddAllMatchesBatch(t *testing.T) {
	pts := clusteredPoints(60, 400)
	grid := geom.NewPixelGrid(box, 25, 20)
	k := kernel.MustNew(kernel.Quartic, 8)
	s, err := NewStream(k, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		s.Add(p)
	}
	if s.Count() != len(pts) {
		t.Fatalf("Count = %d", s.Count())
	}
	batch, err := Evaluate(cols(pts), Auto, Options{Kernel: k, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Snapshot().MaxAbsDiff(batch)
	_, peak := batch.MinMax()
	if d > 1e-9*(1+peak) {
		t.Errorf("stream differs from batch by %v", d)
	}
}

func TestStreamAddRemoveMatchesRemaining(t *testing.T) {
	pts := clusteredPoints(61, 300)
	grid := geom.NewPixelGrid(box, 20, 16)
	k := kernel.MustNew(kernel.Epanechnikov, 10)
	s, err := NewStream(k, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		s.Add(p)
	}
	// Remove the first half.
	for _, p := range pts[:150] {
		s.Remove(p)
	}
	if s.Count() != 150 {
		t.Fatalf("Count = %d", s.Count())
	}
	batch, err := Evaluate(cols(pts[150:]), Auto, Options{Kernel: k, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Snapshot().MaxAbsDiff(batch)
	_, peak := batch.MinMax()
	if d > 1e-7*(1+peak) { // removal cancellation leaves small residue
		t.Errorf("after removal differs by %v", d)
	}
	// Surface() is a live view: adding mutates it.
	live := s.Surface()
	before := live.Sum()
	s.Add(geom.Point{X: 50, Y: 40})
	if live.Sum() <= before {
		t.Error("Surface is not a live view")
	}
	// Snapshot is detached.
	snap := s.Snapshot()
	sumBefore := snap.Sum()
	s.Add(geom.Point{X: 50, Y: 40})
	if snap.Sum() != sumBefore {
		t.Error("Snapshot aliases the stream")
	}
}

func TestWindowStreamMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	n := 500
	pts := make([]geom.Point, n)
	times := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 80}
		times[i] = r.Float64() * 100
	}
	grid := geom.NewPixelGrid(box, 16, 12)
	k := kernel.MustNew(kernel.Quartic, 9)
	const width = 25.0
	w, err := NewWindowStream(k, grid, mustDataset(t, pts, times), width)
	if err != nil {
		t.Fatal(err)
	}
	for _, now := range []float64{10, 30, 55, 90, 200} {
		w.Advance(now)
		// Direct recomputation of the window contents.
		var inWin []geom.Point
		for i := range pts {
			if times[i] <= now && times[i] > now-width {
				inWin = append(inWin, pts[i])
			}
		}
		if w.Live() != len(inWin) {
			t.Fatalf("now=%v: Live=%d, want %d", now, w.Live(), len(inWin))
		}
		direct, err := Evaluate(cols(inWin), Auto, Options{Kernel: k, Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		d, _ := w.Snapshot().MaxAbsDiff(direct)
		_, peak := direct.MinMax()
		if d > 1e-7*(1+peak) {
			t.Errorf("now=%v: window surface differs by %v", now, d)
		}
	}
}

func TestWindowStreamValidation(t *testing.T) {
	grid := geom.NewPixelGrid(box, 8, 8)
	k := kernel.MustNew(kernel.Quartic, 5)
	if _, err := NewWindowStream(k, grid, dataset.FromPoints([]geom.Point{{X: 1, Y: 1}}), 5); err == nil ||
		!strings.Contains(err.Error(), "no event times") {
		t.Errorf("dataset without times: err = %v", err)
	}
	if _, err := NewWindowStream(k, grid, mustDataset(t, []geom.Point{{X: 1, Y: 1}}, []float64{0}), 0); err == nil ||
		!strings.Contains(err.Error(), "window width must be positive") {
		t.Errorf("zero width: err = %v", err)
	}
	// Unsorted input is sorted internally.
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	times := []float64{30, 10, 20}
	w, err := NewWindowStream(k, grid, mustDataset(t, pts, times), 100)
	if err != nil {
		t.Fatal(err)
	}
	w.Advance(15)
	if w.Live() != 1 {
		t.Errorf("Live after t=15 = %d, want 1 (the t=10 event)", w.Live())
	}
	// Input slices untouched.
	if times[0] != 30 {
		t.Error("input times reordered")
	}
}

// mustDataset is dataset.New over pts and times, failing the test on error.
func mustDataset(t *testing.T, pts []geom.Point, times []float64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.New(pts, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
