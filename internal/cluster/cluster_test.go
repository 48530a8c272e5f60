package cluster

import (
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func cols(pts []geom.Point) dataset.Columns { return dataset.MakeColumns(pts) }

func blobs(seed int64, n int) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	return dataset.GaussianClusters(r, n, box, []dataset.Cluster{
		{Center: geom.Point{X: 20, Y: 20}, Sigma: 2, Weight: 1},
		{Center: geom.Point{X: 80, Y: 30}, Sigma: 2, Weight: 1},
		{Center: geom.Point{X: 50, Y: 80}, Sigma: 2, Weight: 1},
	}, 0).Points()
}

func TestDBSCANValidation(t *testing.T) {
	pts := blobs(1, 30)
	if _, err := DBSCAN(cols(pts), 0, 3); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := DBSCAN(cols(pts), 1, 0); err == nil {
		t.Error("minPts=0 accepted")
	}
	if _, err := DBSCANNaive(cols(pts), -1, 3); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestDBSCANFindsPlantedClusters(t *testing.T) {
	pts := blobs(2, 600)
	labels, err := DBSCAN(cols(pts), 2.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := NumClusters(labels); got != 3 {
		t.Fatalf("clusters = %d, want 3", got)
	}
	// Points near the same planted center share a label.
	centerLabel := func(c geom.Point) int {
		for i, p := range pts {
			if p.Dist(c) < 1 {
				return labels[i]
			}
		}
		return Noise
	}
	l1 := centerLabel(geom.Point{X: 20, Y: 20})
	l2 := centerLabel(geom.Point{X: 80, Y: 30})
	l3 := centerLabel(geom.Point{X: 50, Y: 80})
	if l1 == Noise || l2 == Noise || l3 == Noise {
		t.Fatal("planted center labelled noise")
	}
	if l1 == l2 || l2 == l3 || l1 == l3 {
		t.Errorf("planted clusters merged: %d %d %d", l1, l2, l3)
	}
}

func TestDBSCANNoise(t *testing.T) {
	pts := blobs(3, 300)
	// Add isolated outliers.
	outliers := []geom.Point{{X: 5, Y: 95}, {X: 95, Y: 95}, {X: 95, Y: 5}}
	pts = append(pts, outliers...)
	labels, err := DBSCAN(cols(pts), 2.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(pts) - 3; i < len(pts); i++ {
		if labels[i] != Noise {
			t.Errorf("outlier %d labelled %d, want Noise", i, labels[i])
		}
	}
}

func TestDBSCANGridMatchesNaive(t *testing.T) {
	for seed := int64(4); seed < 8; seed++ {
		pts := blobs(seed, 400)
		for _, eps := range []float64{1, 3, 8} {
			fast, err := DBSCAN(cols(pts), eps, 4)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := DBSCANNaive(cols(pts), eps, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Labels may be permuted between runs; compare partitions.
			if !samePartition(fast, slow) {
				t.Fatalf("seed %d eps %v: partitions differ", seed, eps)
			}
		}
	}
}

// samePartition checks two labelings induce the same partition with the
// same noise set.
func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	mapAB := map[int]int{}
	mapBA := map[int]int{}
	for i := range a {
		if (a[i] == Noise) != (b[i] == Noise) {
			return false
		}
		if a[i] == Noise {
			continue
		}
		if m, ok := mapAB[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			mapAB[a[i]] = b[i]
		}
		if m, ok := mapBA[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			mapBA[b[i]] = a[i]
		}
	}
	return true
}

func TestDBSCANEmptyAndSingle(t *testing.T) {
	labels, err := DBSCAN(cols(nil), 1, 2)
	if err != nil || len(labels) != 0 {
		t.Errorf("empty: %v %v", labels, err)
	}
	labels, err = DBSCAN(cols([]geom.Point{{X: 1, Y: 1}}), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != Noise {
		t.Errorf("single point label %d, want Noise", labels[0])
	}
	labels, _ = DBSCAN(cols([]geom.Point{{X: 1, Y: 1}}), 1, 1)
	if labels[0] != 0 {
		t.Errorf("single point with minPts=1 label %d, want 0", labels[0])
	}
}

func TestKMeansValidation(t *testing.T) {
	pts := blobs(9, 50)
	r := rand.New(rand.NewSource(1))
	if _, err := KMeans(cols(pts), 0, 10, r); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(cols(pts), 51, 10, r); err == nil {
		t.Error("k>n accepted")
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	pts := blobs(10, 900)
	r := rand.New(rand.NewSource(2))
	res, err := KMeans(cols(pts), 3, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 || len(res.Labels) != len(pts) {
		t.Fatalf("shape: %d centers, %d labels", len(res.Centers), len(res.Labels))
	}
	// Each recovered center near one planted center, all distinct.
	planted := []geom.Point{{X: 20, Y: 20}, {X: 80, Y: 30}, {X: 50, Y: 80}}
	used := make([]bool, 3)
	for _, c := range res.Centers {
		found := false
		for i, p := range planted {
			if !used[i] && c.Dist(p) < 3 {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("center %v matches no planted blob", c)
		}
	}
	if res.Inertia <= 0 {
		t.Errorf("inertia = %v", res.Inertia)
	}
	if res.Iters < 1 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	pts := blobs(11, 300)
	a, err := KMeans(cols(pts), 3, 50, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(cols(pts), 3, 50, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labelings")
		}
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Point{X: 5, Y: 5}
	}
	res, err := KMeans(cols(pts), 3, 20, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("duplicate points inertia = %v", res.Inertia)
	}
}

func TestNumClusters(t *testing.T) {
	if NumClusters([]int{Noise, Noise}) != 0 {
		t.Error("all-noise count")
	}
	if NumClusters([]int{0, 1, 1, Noise, 2}) != 3 {
		t.Error("count wrong")
	}
	if NumClusters(nil) != 0 {
		t.Error("nil count")
	}
}
