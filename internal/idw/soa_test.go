package idw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

// aosReference interpolates one pixel the pre-columnar way: a single
// array-of-structs pass in sample order, replicating naivePixel's
// arithmetic (including the coincident short-circuit) term for term.
func aosReference(pts []geom.Point, vals []float64, qx, qy, power float64) float64 {
	num, den := 0.0, 0.0
	for i, p := range pts {
		dx := p.X - qx
		dy := p.Y - qy
		d2 := dx*dx + dy*dy
		if d2 < epsCoincident {
			return vals[i]
		}
		w := weight(d2, power)
		num += w * vals[i]
		den += w
	}
	return num / den
}

func TestNaiveColumnarBitIdentity(t *testing.T) {
	// The columnar Naive loop must reproduce the array-of-structs loop bit
	// for bit, across the specialised powers (2, 4) and the math.Pow
	// fallback, serial and parallel.
	r := rand.New(rand.NewSource(21))
	n := 9000 // several storage chunks
	pts := make([]geom.Point, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 80}
		vals[i] = r.NormFloat64()*5 + 20
	}
	d, err := dataset.New(pts, nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 80}
	for _, power := range []float64{2, 4, 3.5} {
		for _, workers := range []int{1, 4} {
			opt := Options{Grid: geom.NewPixelGrid(box, 16, 12), Power: power, Workers: workers}
			got, err := Naive(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			for iy := 0; iy < opt.Grid.NY; iy++ {
				for ix := 0; ix < opt.Grid.NX; ix++ {
					q := opt.Grid.Center(ix, iy)
					want := aosReference(pts, vals, q.X, q.Y, power)
					if math.Float64bits(got.At(ix, iy)) != math.Float64bits(want) {
						t.Fatalf("power=%v workers=%d: pixel (%d,%d) = %v, want %v",
							power, workers, ix, iy, got.At(ix, iy), want)
					}
				}
			}
		}
	}
}

func TestRadiusMatchesMaskedReference(t *testing.T) {
	// Radius streams the grid index's cell-ordered columns; the reference
	// masks the plain sample list to the disc. Cell order differs from
	// sample order, so equality is numeric (1e-12 relative), not bitwise.
	r := rand.New(rand.NewSource(22))
	n := 5000
	pts := make([]geom.Point, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 80}
		vals[i] = r.NormFloat64()*5 + 20
	}
	d, err := dataset.New(pts, nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 80}
	radius := 6.0
	opt := Options{Grid: geom.NewPixelGrid(box, 16, 12), Power: 2}
	got, err := Radius(d, opt, radius)
	if err != nil {
		t.Fatal(err)
	}
	r2 := radius * radius
	for iy := 0; iy < opt.Grid.NY; iy++ {
		for ix := 0; ix < opt.Grid.NX; ix++ {
			q := opt.Grid.Center(ix, iy)
			num, den := 0.0, 0.0
			for i, p := range pts {
				d2 := p.Dist2(q)
				if d2 > r2 || d2 < epsCoincident {
					continue
				}
				w := weight(d2, opt.Power)
				num += w * vals[i]
				den += w
			}
			if den == 0 {
				continue // nearest-sample fallback; covered elsewhere
			}
			want := num / den
			if diff := math.Abs(got.At(ix, iy) - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("pixel (%d,%d) = %v, want %v (diff %v)", ix, iy, got.At(ix, iy), want, diff)
			}
		}
	}
}

// TestHotPathAllocs: naivePixel allocates nothing at the specialised powers
// or through the math.Pow fallback.
func TestHotPathAllocs(t *testing.T) {
	d := field(23, 500)
	cols, vals := d.Columns(), d.Values()
	for _, power := range []float64{2, 4, 3.5} {
		t.Run(fmt.Sprintf("power=%v", power), func(t *testing.T) {
			sink := 0.0
			got := testing.AllocsPerRun(10, func() {
				sink += naivePixel(cols.X, cols.Y, vals, 41.5, 37.25, power)
			})
			if got != 0 {
				t.Errorf("naivePixel allocates %v times per pixel (sink %v)", got, sink)
			}
		})
	}
}
