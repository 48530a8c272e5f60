package kde

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// Property (testing/quick): for random clouds, bandwidths, and grids, the
// sweep line matches the naive sum to within peak-relative rounding for
// every polynomial kernel. This is the correctness core of the SLAM-style
// algorithm, fuzzed.
func TestQuickSweepMatchesNaive(t *testing.T) {
	f := func(pts []geom.Point, ktIdx uint8, b float64, nx, ny uint8) bool {
		kt := []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triweight}[int(ktIdx)%4]
		opt := Options{
			Kernel: kernel.MustNew(kt, 0.5+b*30),
			Grid:   geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 60, MaxY: 40}, int(nx)%30+2, int(ny)%30+2),
		}
		naive, err := Evaluate(cols(pts), Naive, opt)
		if err != nil {
			return false
		}
		sweep, err := Evaluate(cols(pts), SweepLine, opt)
		if err != nil {
			return false
		}
		d, _ := sweep.MaxAbsDiff(naive)
		_, peak := naive.MinMax()
		return d <= 1e-9*(1+peak)
	}
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(120)
			pts := make([]geom.Point, n)
			for i := range pts {
				// Include off-raster points: supports clipped by the grid.
				pts[i] = geom.Point{X: r.Float64()*80 - 10, Y: r.Float64()*60 - 10}
			}
			args[0] = reflect.ValueOf(pts)
			args[1] = reflect.ValueOf(uint8(r.Intn(256)))
			args[2] = reflect.ValueOf(r.Float64())
			args[3] = reflect.ValueOf(uint8(r.Intn(256)))
			args[4] = reflect.ValueOf(uint8(r.Intn(256)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every KDV surface is non-negative and zero-sum iff there are
// no points; GridCutoff always equals Naive for finite-support kernels.
func TestQuickCutoffMatchesNaive(t *testing.T) {
	f := func(pts []geom.Point, ktIdx uint8, b float64) bool {
		finite := []kernel.Type{
			kernel.Uniform, kernel.Triangular, kernel.Epanechnikov,
			kernel.Quartic, kernel.Triweight, kernel.Cosine,
		}
		kt := finite[int(ktIdx)%len(finite)]
		opt := Options{
			Kernel: kernel.MustNew(kt, 0.5+b*25),
			Grid:   geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}, 17, 13),
		}
		naive, err := Evaluate(cols(pts), Naive, opt)
		if err != nil {
			return false
		}
		for _, v := range naive.Values {
			if v < 0 {
				return false
			}
		}
		cut, err := Evaluate(cols(pts), GridCutoff, opt)
		if err != nil {
			return false
		}
		d, _ := cut.MaxAbsDiff(naive)
		return d <= 1e-9
	}
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(100)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: r.Float64() * 50, Y: r.Float64() * 50}
			}
			args[0] = reflect.ValueOf(pts)
			args[1] = reflect.ValueOf(uint8(r.Intn(256)))
			args[2] = reflect.ValueOf(r.Float64())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
