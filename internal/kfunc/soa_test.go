package kfunc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"geostat/internal/geom"
)

// borderReference recomputes BorderCorrected the pre-columnar way: one
// per-point pass with no chunk-level classification, neighbours counted by
// brute force (boundary inclusive, matching gridindex.RangeCount).
func borderReference(pts []geom.Point, s float64, window geom.BBox) (float64, int, bool) {
	eligible, total := 0, 0
	s2 := s * s
	for _, p := range pts {
		if p.X-window.MinX < s || window.MaxX-p.X < s ||
			p.Y-window.MinY < s || window.MaxY-p.Y < s {
			continue
		}
		eligible++
		for _, q := range pts {
			if q != p && p.Dist2(q) <= s2 {
				total++
			}
		}
	}
	if eligible == 0 {
		return 0, 0, false
	}
	lambda := float64(len(pts)) / window.Area()
	return float64(total) / (float64(eligible) * lambda), eligible, true
}

func TestBorderCorrectedChunkClassification(t *testing.T) {
	// Enough points for several chunks, sorted by distance to the window
	// boundary so the chunk-wise classification exercises all three cases:
	// whole chunks skipped (all points near the border), whole chunks
	// accepted without per-point tests (allIn), and mixed chunks.
	window := geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	r := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 9000)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	borderDist := func(p geom.Point) float64 {
		return math.Min(math.Min(p.X-window.MinX, window.MaxX-p.X),
			math.Min(p.Y-window.MinY, window.MaxY-p.Y))
	}
	sort.Slice(pts, func(i, j int) bool { return borderDist(pts[i]) < borderDist(pts[j]) })

	for _, s := range []float64{2, 5, 12} {
		gotK, gotN, gotOK := BorderCorrected(cols(pts), s, window)
		wantK, wantN, wantOK := borderReference(pts, s, window)
		if gotOK != wantOK || gotN != wantN {
			t.Fatalf("s=%v: eligible = %d/%v, want %d/%v", s, gotN, gotOK, wantN, wantOK)
		}
		if math.Abs(gotK-wantK) > 1e-9*(1+wantK) {
			t.Errorf("s=%v: kHat = %v, want %v", s, gotK, wantK)
		}
	}

	// Degenerate: s larger than half the window leaves no eligible source.
	if _, n, ok := BorderCorrected(cols(pts), 51, window); ok || n != 0 {
		t.Errorf("s=51: eligible = %d, ok = %v, want none", n, ok)
	}
}
