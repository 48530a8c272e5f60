package kde

import (
	"fmt"
	"sort"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/raster"
)

// Stream maintains a KDV surface under event insertions and removals — the
// interactive/streaming-KDE use case the paper's §2.2 cites ([67]: live
// visualization of arriving data). Each update scatters (or retracts) one
// kernel footprint: O(footprint) per event, no recomputation of the rest
// of the surface. Finite-support kernels only.
type Stream struct {
	k      kernel.Kernel
	grid   geom.PixelGrid
	fp     geom.Footprint
	values []float64
	count  int
}

// NewStream returns an empty streaming surface.
func NewStream(k kernel.Kernel, grid geom.PixelGrid) (*Stream, error) {
	if k.Bandwidth() <= 0 {
		return nil, fmt.Errorf("kde: kernel not initialised; use kernel.New")
	}
	if !k.FiniteSupport() {
		return nil, fmt.Errorf("kde: streaming requires a finite-support kernel, got %v", k.Type())
	}
	if grid.NX <= 0 || grid.NY <= 0 {
		return nil, fmt.Errorf("kde: grid not initialised")
	}
	return &Stream{k: k, grid: grid, fp: grid.Footprint(k.Bandwidth()), values: make([]float64, grid.NumPixels())}, nil
}

// Count returns the number of live events.
func (s *Stream) Count() int { return s.count }

// Add inserts an event.
func (s *Stream) Add(p geom.Point) {
	scatter(s.values, s.grid, &s.fp, s.k, p, +1, 0, s.grid.NY)
	s.count++
}

// Remove retracts a previously added event. Removing an event that was
// never added silently corrupts the surface (the stream keeps no event
// log); the sliding-window driver below guarantees matched add/remove.
func (s *Stream) Remove(p geom.Point) {
	scatter(s.values, s.grid, &s.fp, s.k, p, -1, 0, s.grid.NY)
	s.count--
}

// Snapshot returns a copy of the current surface.
func (s *Stream) Snapshot() *raster.Grid {
	return &raster.Grid{Spec: s.grid, Values: append([]float64(nil), s.values...)}
}

// Surface returns the live surface (shared storage; mutated by updates).
func (s *Stream) Surface() *raster.Grid {
	return &raster.Grid{Spec: s.grid, Values: s.values}
}

// WindowStream drives a Stream over a time-ordered event log with a
// sliding window: after Advance(now), the surface holds exactly the events
// with now−width < t ≤ now. This is the live hotspot-map loop: each frame
// advances the clock and renders the snapshot.
type WindowStream struct {
	stream *Stream
	xs, ys []float64
	times  []float64
	width  float64
	addI   int // next event to add (t <= now)
	remI   int // next event to remove (t <= now-width)
}

// NewWindowStream sorts d's events by time and returns a driver with the
// given window width. The dataset is not modified.
func NewWindowStream(k kernel.Kernel, grid geom.PixelGrid, d *dataset.Dataset, width float64) (*WindowStream, error) {
	if !d.HasTimes() {
		return nil, fmt.Errorf("kde: dataset has no event times")
	}
	if !(width > 0) {
		return nil, fmt.Errorf("kde: window width must be positive, got %g", width)
	}
	s, err := NewStream(k, grid)
	if err != nil {
		return nil, err
	}
	n, times := d.N(), d.Times()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return times[order[a]] < times[order[b]] })
	w := &WindowStream{
		stream: s,
		xs:     make([]float64, n),
		ys:     make([]float64, n),
		times:  make([]float64, n),
		width:  width,
	}
	for i, oi := range order {
		w.xs[i], w.ys[i] = d.XY(oi)
		w.times[i] = times[oi]
	}
	return w, nil
}

// Advance moves the clock forward to now (monotone: rewinding is not
// supported) and updates the surface to the events in (now−width, now].
func (w *WindowStream) Advance(now float64) {
	for w.addI < len(w.times) && w.times[w.addI] <= now {
		w.stream.Add(geom.Point{X: w.xs[w.addI], Y: w.ys[w.addI]})
		w.addI++
	}
	cutoff := now - w.width
	for w.remI < w.addI && w.times[w.remI] <= cutoff {
		w.stream.Remove(geom.Point{X: w.xs[w.remI], Y: w.ys[w.remI]})
		w.remI++
	}
}

// Snapshot returns a copy of the current window's surface.
func (w *WindowStream) Snapshot() *raster.Grid { return w.stream.Snapshot() }

// Live returns the number of events currently in the window.
func (w *WindowStream) Live() int { return w.stream.Count() }
