package kfunc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"geostat/internal/geom"
)

func genCloud(r *rand.Rand, maxN int) []geom.Point {
	n := r.Intn(maxN)
	pts := make([]geom.Point, n)
	for i := range pts {
		if i > 0 && r.Intn(8) == 0 {
			pts[i] = pts[r.Intn(i)] // duplicates
			continue
		}
		pts[i] = geom.Point{X: r.Float64() * 50, Y: r.Float64() * 50}
	}
	return pts
}

// Property (testing/quick): all three single-threshold K implementations
// agree for arbitrary clouds (including duplicates) and radii.
func TestQuickKMethodsAgree(t *testing.T) {
	f := func(pts []geom.Point, s float64) bool {
		want := Naive(cols(pts), s)
		return GridIndexed(pts, s) == want && KDTreeIndexed(pts, s) == want
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genCloud(r, 150))
			args[1] = reflect.ValueOf(r.Float64() * 30)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the one-pass curve equals per-threshold evaluation, is
// monotone, and is even (symmetric ordered pairs ⇒ every count is even).
func TestQuickCurveInvariants(t *testing.T) {
	f := func(pts []geom.Point, a, b, c float64) bool {
		ts := []float64{1 + a*5, 7 + b*5, 13 + c*5}
		curve, err := curveOf(pts, ts, 0)
		if err != nil {
			return false
		}
		prev := -1
		for i, s := range ts {
			if curve[i] != Naive(cols(pts), s) {
				return false
			}
			if curve[i] < prev || curve[i]%2 != 0 {
				return false
			}
			prev = curve[i]
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genCloud(r, 120))
			for i := 1; i < 4; i++ {
				args[i] = reflect.ValueOf(r.Float64())
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the ST surface equals the naive definition cell by cell for
// random thresholds, and degrades to the purely spatial K when the
// temporal threshold covers the whole time range.
func TestQuickSTSurfaceInvariants(t *testing.T) {
	f := func(pts []geom.Point, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		times := make([]float64, len(pts))
		for i := range times {
			times[i] = r.Float64() * 100
		}
		sTh := []float64{3, 9}
		tTh := []float64{10, 1000} // second threshold covers everything
		xs, ys := geom.SplitXY(pts)
		surf, err := STSurface(xs, ys, times, sTh, tTh, 0)
		if err != nil {
			return false
		}
		for a, s := range sTh {
			for b, tt := range tTh {
				if k, err := STNaive(cols(pts), times, s, tt); err != nil || surf[a*2+b] != k {
					return false
				}
			}
			// t=1000 covers the whole range ⇒ equal to spatial K.
			if surf[a*2+1] != Naive(cols(pts), s) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genCloud(r, 100))
			args[1] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
