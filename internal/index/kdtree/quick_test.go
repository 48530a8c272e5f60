package kdtree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"geostat/internal/geom"
)

// pointSet is a quick.Generator producing random point clouds with varied
// size, scale, and duplication (duplicates and collinear runs are the
// classic kd-tree stress cases).
type pointSet []geom.Point

func (pointSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size*8 + 1)
	scale := []float64{1, 100, 1e4}[r.Intn(3)]
	pts := make(pointSet, n)
	for i := range pts {
		switch r.Intn(10) {
		case 0: // duplicate an earlier point
			if i > 0 {
				pts[i] = pts[r.Intn(i)]
				continue
			}
			fallthrough
		case 1: // collinear on y=0
			pts[i] = geom.Point{X: r.Float64() * scale}
		default:
			pts[i] = geom.Point{X: r.Float64() * scale, Y: r.Float64() * scale}
		}
	}
	return reflect.ValueOf(pts)
}

// Property: RangeCount always agrees with the brute-force count, for any
// point cloud, center, and radius.
func TestQuickRangeCountInvariant(t *testing.T) {
	f := func(pts pointSet, cx, cy, rad float64) bool {
		q := geom.Point{X: cx * 100, Y: cy * 100}
		r := rad * rad * 50 // non-negative, varied magnitude
		tr := New(pts)
		want := 0
		for _, p := range pts {
			if p.Dist2(q) <= r*r {
				want++
			}
		}
		return tr.RangeCount(q, r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Len is preserved and RangeCount with an enormous radius counts
// every point.
func TestQuickFullCoverInvariant(t *testing.T) {
	f := func(pts pointSet) bool {
		tr := New(pts)
		if tr.Len() != len(pts) {
			return false
		}
		return tr.RangeCount(geom.Point{}, 1e9) == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: KNearest returns sorted distances and exactly min(k, n)
// results, and its worst distance never beats brute force.
func TestQuickKNearestInvariant(t *testing.T) {
	f := func(pts pointSet, qx, qy float64, kRaw uint8) bool {
		if len(pts) == 0 {
			return true
		}
		k := int(kRaw)%len(pts) + 1
		q := geom.Point{X: qx * 100, Y: qy * 100}
		tr := New(pts)
		idx, d2 := tr.KNearest(q, k, new(Scratch))
		if len(idx) != k {
			return false
		}
		for i := 1; i < len(d2); i++ {
			if d2[i] < d2[i-1] {
				return false
			}
		}
		// Count of points strictly closer than the kth must be < k.
		closer := 0
		for _, p := range pts {
			if p.Dist2(q) < d2[k-1]-1e-12 {
				closer++
			}
		}
		return closer < k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
