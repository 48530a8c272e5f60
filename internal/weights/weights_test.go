package weights

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/geom"
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

// knn and band call the columnar constructors on a point slice.
func knn(pts []geom.Point, k int) (*Matrix, error) {
	xs, ys := geom.SplitXY(pts)
	return KNN(xs, ys, k, -1)
}

func band(pts []geom.Point, radius float64) (*Matrix, error) {
	xs, ys := geom.SplitXY(pts)
	return DistanceBand(xs, ys, radius, -1)
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
	for i := 0; i < m.N; i++ {
		if got := m.RowSum(i); math.Abs(got-1) > 1e-12 {
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
	if m2.RowSum(4) != 0 {
		t.Error("isolated point gained weight")
	}
	if m2.RowSumSquares(4) != 0 {
		t.Error("isolated point RowSumSquares nonzero")
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
