package weights

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
)

func gridPoints(n int) []geom.Point {
	pts := make([]geom.Point, 0, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

// knn and band call the dataset constructors on a fresh copy of pts.
func knn(pts []geom.Point, k int) (*Matrix, error) {
	m, _, err := KNNDataset(dataset.FromPoints(pts), k, -1)
	return m, err
}

func band(pts []geom.Point, radius float64) (*Matrix, error) {
	m, _, err := DistanceBandDataset(dataset.FromPoints(pts), radius, -1)
	return m, err
}

func TestKNNValidation(t *testing.T) {
	pts := gridPoints(3)
	if _, err := knn(pts, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := knn(pts, len(pts)); err == nil {
		t.Error("k=n accepted")
	}
}

func TestKNNStructure(t *testing.T) {
	pts := gridPoints(5)
	m, err := knn(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 25 {
		t.Fatalf("N = %d", m.N)
	}
	for i := 0; i < m.N; i++ {
		if m.Degree(i) != 4 {
			t.Fatalf("site %d degree %d, want 4", i, m.Degree(i))
		}
		m.ForEachNeighbor(i, func(j int, w float64) {
			if j == i {
				t.Fatal("self-neighbour present")
			}
			if w != 1 {
				t.Fatalf("binary weight = %v", w)
			}
		})
	}
	// Interior point (2,2) = index 12: neighbours are the 4-adjacent cells.
	want := map[int]bool{7: true, 11: true, 13: true, 17: true}
	m.ForEachNeighbor(12, func(j int, _ float64) {
		if !want[j] {
			t.Errorf("unexpected neighbour %d of center", j)
		}
		delete(want, j)
	})
	if len(want) != 0 {
		t.Errorf("missing neighbours: %v", want)
	}
	if m.S0() != 100 {
		t.Errorf("S0 = %v, want 100", m.S0())
	}
}

func TestDistanceBand(t *testing.T) {
	pts := gridPoints(4)
	if _, err := band(pts, 0); err == nil {
		t.Error("radius=0 accepted")
	}
	m, err := band(pts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Corner point (0,0): neighbours (1,0) and (0,1).
	if m.Degree(0) != 2 {
		t.Errorf("corner degree = %d, want 2", m.Degree(0))
	}
	// Interior point (1,1) = index 5: four neighbours at distance 1.
	if m.Degree(5) != 4 {
		t.Errorf("interior degree = %d, want 4", m.Degree(5))
	}
	// Symmetry: w_ij = w_ji for distance band.
	adj := make(map[[2]int]bool)
	for i := 0; i < m.N; i++ {
		m.ForEachNeighbor(i, func(j int, _ float64) { adj[[2]int{i, j}] = true })
	}
	for key := range adj {
		if !adj[[2]int{key[1], key[0]}] {
			t.Fatalf("asymmetric band weights at %v", key)
		}
	}
}

func TestRowStandardize(t *testing.T) {
	pts := gridPoints(4)
	m, err := band(pts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m.RowStandardize()
	rowSum := func(m *Matrix, i int) float64 {
		s := 0.0
		for k := m.off[i]; k < m.off[i+1]; k++ {
			s += m.w[k]
		}
		return s
	}
	for i := 0; i < m.N; i++ {
		if got := rowSum(m, i); math.Abs(got-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, got)
		}
	}
	// Isolated point: row stays zero.
	iso := append(gridPoints(2), geom.Point{X: 100, Y: 100})
	m2, err := band(iso, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	m2.RowStandardize()
	if rowSum(m2, 4) != 0 {
		t.Error("isolated point gained weight")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 50, Y: r.Float64() * 50}
	}
	const k = 6
	m, err := knn(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		// The k-th neighbour distance from the matrix must match brute force.
		maxD := 0.0
		m.ForEachNeighbor(i, func(j int, _ float64) {
			if d := pts[i].Dist(pts[j]); d > maxD {
				maxD = d
			}
		})
		// Brute force k-th nearest distance.
		ds := make([]float64, 0, len(pts)-1)
		for j := range pts {
			if j != i {
				ds = append(ds, pts[i].Dist(pts[j]))
			}
		}
		kth := kthSmallest(ds, k)
		if math.Abs(maxD-kth) > 1e-9 {
			t.Fatalf("site %d: kth dist %v, want %v", i, maxD, kth)
		}
	}
}

func kthSmallest(ds []float64, k int) float64 {
	// Simple selection for the test.
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j] < ds[min] {
				min = j
			}
		}
		ds[i], ds[min] = ds[min], ds[i]
	}
	return ds[k-1]
}

// hostileSites are the inputs the band loop is held to RangeQuery on:
// scattered sites, more coincident sites than a grid cell usually holds,
// and the same under UTM-scale offsets.
func hostileSites() map[string][]geom.Point {
	r := rand.New(rand.NewSource(9))
	scattered := make([]geom.Point, 300)
	for i := range scattered {
		scattered[i] = geom.Point{X: r.Float64() * 20, Y: r.Float64() * 20}
	}
	coincident := append([]geom.Point(nil), scattered[:60]...)
	for i := 0; i < 40; i++ {
		coincident = append(coincident, geom.Point{X: 5, Y: 5})
	}
	utm := make([]geom.Point, len(coincident))
	for i, p := range coincident {
		utm[i] = geom.Point{X: p.X + 5e5, Y: p.Y + 4.2e6}
	}
	return map[string][]geom.Point{"scattered": scattered, "coincident": coincident, "utm": utm, "single": scattered[:1]}
}

// TestBandRowsEqualRangeQuery: every row of the two-pass band pattern is
// the grid index's RangeQuery answer minus the site itself, in the same
// order, for every worker count — the definition the per-row-slice
// assembly it replaces implemented.
func TestBandRowsEqualRangeQuery(t *testing.T) {
	for name, pts := range hostileSites() {
		xs, ys := geom.SplitXY(pts)
		for _, radius := range []float64{0.5, 2, 1e3} {
			idx := gridindex.NewColumns(xs, ys, radius)
			for _, workers := range []int{1, 2, -1} {
				m, _, err := DistanceBandDataset(dataset.FromPoints(pts), radius, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pts {
					var want []int
					for _, j := range idx.RangeQuery(p, radius, nil) {
						if j != i {
							want = append(want, j)
						}
					}
					var got []int
					m.ForEachNeighbor(i, func(j int, w float64) {
						got = append(got, j)
						if w != 1 {
							t.Fatalf("%s r=%g: weight %v", name, radius, w)
						}
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s r=%g workers=%d: row %d = %v, RangeQuery minus self %v", name, radius, workers, i, got, want)
					}
				}
			}
		}
	}
}

// TestTooDense: a neighbourhood with more nonzeros than the int32 row
// offsets address is refused with a typed error instead of wrapping — kNN
// from n·k before any query runs, a band by the running count of its
// counting pass, before any column storage is allocated.
func TestTooDense(t *testing.T) {
	old := maxNeighbors
	t.Cleanup(func() { maxNeighbors = old })
	pts := gridPoints(10) // n = 100

	maxNeighbors = 100*7 - 1
	var dense *TooDenseError
	if _, err := knn(pts, 7); !errors.As(err, &dense) || dense.N != 100 || dense.Neighbors != 700 {
		t.Fatalf("kNN over the limit: %v", err)
	}
	if m, err := knn(pts, 6); err != nil || m.S0() != 600 {
		t.Fatalf("kNN under the limit: %v", err)
	}

	// Radius 1 on the 10×10 lattice: 4 neighbours inside, 360 in all.
	maxNeighbors = 359
	dense = nil
	d := dataset.FromPoints(pts)
	if _, _, err := DistanceBandDataset(d, 1, 1); !errors.As(err, &dense) || dense.Neighbors != 360 {
		t.Fatalf("band over the limit, serial: %v", err)
	}
	if _, _, err := DistanceBandDataset(d, 1, -1); !errors.As(err, &dense) || dense.Neighbors <= maxNeighbors {
		t.Fatalf("band over the limit, parallel: %v", err)
	}
	maxNeighbors = 360
	if m, hit, err := DistanceBandDataset(d, 1, -1); err != nil || hit || m.S0() != 360 {
		t.Fatalf("band at the limit after a refusal: hit=%v err=%v (a failed build must not be memoised)", hit, err)
	}
}

// TestDatasetConstructorsSharePattern: over one snapshot the dataset
// constructors serve the same read-only pattern to every caller with the
// same key — and a matrix of their own, so RowStandardize on one result
// never shows in the next; rejected parameters leave the memo alone; the
// matrices equal, bit for bit, the ones built over a fresh copy of the
// sites, whose memo is empty.
func TestDatasetConstructorsSharePattern(t *testing.T) {
	pts := hostileSites()["coincident"]
	ref, err := knn(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	bref, err := band(pts, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.FromPoints(pts)

	for _, k := range []int{0, len(pts)} {
		if _, hit, err := KNNDataset(d, k, -1); err == nil || hit {
			t.Fatalf("KNNDataset(k=%d): err=%v hit=%v", k, err, hit)
		}
	}
	if _, hit, err := DistanceBandDataset(d, math.NaN(), -1); err == nil || hit {
		t.Fatalf("DistanceBandDataset(NaN): err=%v hit=%v", err, hit)
	}
	_, before := dataset.NeighbourhoodBuilds()

	m1, hit, err := KNNDataset(d, 5, 2)
	if err != nil || hit {
		t.Fatalf("first KNNDataset: hit=%v err=%v (rejected parameters must not occupy the slot)", hit, err)
	}
	m1.RowStandardize()
	m2, hit, err := KNNDataset(d, 5, 1)
	if err != nil || !hit {
		t.Fatalf("second KNNDataset: hit=%v err=%v", hit, err)
	}
	if &m1.col[0] != &m2.col[0] || &m1.off[0] != &m2.off[0] || &m1.w[0] == &m2.w[0] {
		t.Fatal("want a shared pattern and separate weights")
	}
	if !reflect.DeepEqual(m2, ref) {
		t.Fatal("memoised matrix differs from a fresh copy's, or shows the first result's RowStandardize")
	}
	if !reflect.DeepEqual(m1, ref.RowStandardize()) {
		t.Fatal("row-standardised memoised matrix differs from a fresh copy's")
	}

	b1, hit1, err1 := DistanceBandDataset(d, 1.5, -1)
	b2, hit2, err2 := DistanceBandDataset(d, 1.5, -1)
	if err := errors.Join(err1, err2); err != nil || hit1 || !hit2 {
		t.Fatalf("band: hits %v %v, err %v", hit1, hit2, err)
	}
	if !reflect.DeepEqual(b1, bref) || !reflect.DeepEqual(b2, bref) {
		t.Fatal("memoised band matrix differs from a fresh copy's")
	}
	if _, hit, _ := KNNDataset(d, 5, -1); hit {
		t.Fatal("kNN pattern survived the band request: the snapshot keeps one slot")
	}
	if _, after := dataset.NeighbourhoodBuilds(); after-before != 3 {
		t.Fatalf("adjacency builds %d, want 3 (knn, band, knn again)", after-before)
	}
}
