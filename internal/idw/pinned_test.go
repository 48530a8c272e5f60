package idw

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"geostat/internal/geom"
)

// bitsDigest hashes the Float64bits of vs in order.
func bitsDigest(vs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestIndexedDigestsPinned holds the index-backed variants to digests
// recorded from the build whose indexes were built from d.Points() (never
// regenerate them with the current code): the rasters of KNN and Radius
// (the latter with a radius small enough that the nearest-sample fallback
// runs) at workers {1, 2, −1}, and the LOOCV residuals.
func TestIndexedDigestsPinned(t *testing.T) {
	d := field(21, 400)
	for _, workers := range []int{1, 2, -1} {
		o := Options{Grid: geom.NewPixelGrid(box, 48, 40), Power: 2, Workers: workers}
		knn, err := KNN(d, o, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bitsDigest(knn.Values), "a3ca822cde959a6c"; got != want {
			t.Errorf("KNN workers=%d: digest %s, pinned %s", workers, got, want)
		}
		o.Power = 3
		rad, err := Radius(d, o, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bitsDigest(rad.Values), "fc7abf1150888261"; got != want {
			t.Errorf("Radius workers=%d: digest %s, pinned %s", workers, got, want)
		}
	}
	cv, err := LOOCV(d, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bitsDigest(cv.Residuals), "c1cb119906813e58"; got != want {
		t.Errorf("LOOCV: digest %s, pinned %s", got, want)
	}
}

// TestIndexedAgreeWithNaive is the IDW differential: with every sample in
// the neighbourhood — KNN at k = n, Radius at r ≥ the bbox diagonal — the
// index-backed variants sum the same terms as Naive in another order, so
// they agree to 1e-12 relative (not bit for bit) on the inputs that break
// interpolators: a sample exactly under a pixel centre, n = 1, duplicate
// sites, UTM-scale offsets.
func TestIndexedAgreeWithNaive(t *testing.T) {
	grid := geom.NewPixelGrid(box, 20, 20)
	base := field(22, 120)
	shifted := make([]geom.Point, base.N())
	for i := range shifted {
		p := base.Point(i)
		shifted[i] = geom.Point{X: p.X + 5e5, Y: p.Y + 4.2e6}
	}
	utmBox := geom.BBox{MinX: box.MinX + 5e5, MinY: box.MinY + 4.2e6, MaxX: box.MaxX + 5e5, MaxY: box.MaxY + 4.2e6}
	under := append(base.Points(), grid.Center(7, 3))
	cases := []struct {
		name string
		pts  []geom.Point
		vals []float64
		grid geom.PixelGrid
	}{
		{"field", base.Points(), base.Values(), grid},
		{"sample under a pixel centre", under, append(append([]float64(nil), base.Values()...), 42), grid},
		{"n = 1", []geom.Point{{X: 31.7, Y: 64.2}}, []float64{5}, grid},
		{"duplicate sites", []geom.Point{{X: 10, Y: 10}, {X: 10, Y: 10}, {X: 80, Y: 35}, {X: 80, Y: 35}, {X: 41, Y: 77}}, []float64{1, 3, 5, 7, 9}, grid},
		{"utm offsets", shifted, base.Values(), geom.NewPixelGrid(utmBox, 20, 20)},
	}
	for _, c := range cases {
		d := mk(t, c.pts, c.vals)
		for _, power := range []float64{2, 3} {
			o := Options{Grid: c.grid, Power: power, Workers: 2}
			naive, err := Naive(d, o)
			if err != nil {
				t.Fatal(err)
			}
			knn, err := KNN(d, o, d.N())
			if err != nil {
				t.Fatal(err)
			}
			diag := math.Hypot(c.grid.Box.Width(), c.grid.Box.Height())
			rad, err := Radius(d, o, 2*diag)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range naive.Values {
				tol := 1e-12 * math.Max(1, math.Abs(want))
				if math.Abs(knn.Values[i]-want) > tol {
					t.Fatalf("%s power %g: KNN(k=n) pixel %d = %v, Naive %v", c.name, power, i, knn.Values[i], want)
				}
				if math.Abs(rad.Values[i]-want) > tol {
					t.Fatalf("%s power %g: Radius(2·diag) pixel %d = %v, Naive %v", c.name, power, i, rad.Values[i], want)
				}
			}
		}
	}
}
