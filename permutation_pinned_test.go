package geostat

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// pinnedPerm is one record of testdata/permutation_pinned.json: the three
// global autocorrelation statistics with their permutation tests, as the
// build before the shared permutation driver and the columnar weight
// constructors computed them. The file is a pin recorded from that build —
// never regenerate it with the current code.
type pinnedPerm struct {
	Name  string         `json:"name"`
	Moran MoranResult    `json:"moran"`
	Geary GearyResult    `json:"geary"`
	G     GeneralGResult `json:"general_g"`
}

const pinnedPerms = 99

// pinnedPermDataset is the fixture: clustered sites with a strictly
// positive measured field (General G needs non-negative values).
func pinnedPermDataset() *Dataset {
	r := rand.New(rand.NewSource(4242))
	d := GaussianClusters(r, 400, box, []GaussianCluster{
		{Center: Point{X: 30, Y: 30}, Sigma: 6, Weight: 2},
		{Center: Point{X: 70, Y: 60}, Sigma: 10, Weight: 1},
	}, 0.15)
	return WithField(r, d, func(p Point) float64 { return 20 + p.X/60 }, 1.5)
}

// pinnedPermSchemes are the two weight matrices of the pin, each through
// the []Point adapter and through the dataset's columns.
var pinnedPermSchemes = []struct {
	name  string
	build func(d *Dataset, columnar bool, workers int) (*SpatialWeights, error)
}{
	{"knn8-rowstd", func(d *Dataset, columnar bool, workers int) (*SpatialWeights, error) {
		w, err := pinnedWeights(columnar,
			func() (*SpatialWeights, error) { return KNNWeightsWorkers(d.Points(), 8, workers) },
			func() (*SpatialWeights, error) { return KNNWeightsDataset(d, 8, workers) })
		if err != nil {
			return nil, err
		}
		return w.RowStandardize(), nil
	}},
	{"band6", func(d *Dataset, columnar bool, workers int) (*SpatialWeights, error) {
		return pinnedWeights(columnar,
			func() (*SpatialWeights, error) { return DistanceBandWeightsWorkers(d.Points(), 6, workers) },
			func() (*SpatialWeights, error) { return DistanceBandWeightsDataset(d, 6, workers) })
	}},
}

func pinnedWeights(columnar bool, slice, cols func() (*SpatialWeights, error)) (*SpatialWeights, error) {
	if columnar {
		return cols()
	}
	return slice()
}

func pinnedPermRun(d *Dataset, w *SpatialWeights, name string, seed int64, workers int) (pinnedPerm, error) {
	opt := MoranOptions{Perms: pinnedPerms, Seed: seed, Workers: workers}
	rec := pinnedPerm{Name: name}
	m, err := MoranIOpt(d.Values(), w, opt)
	if err != nil {
		return rec, err
	}
	c, err := GearyCOpt(d.Values(), w, opt)
	if err != nil {
		return rec, err
	}
	g, err := GeneralGOpt(d.Values(), w, GetisOrdOptions{Perms: pinnedPerms, Seed: seed, Workers: workers})
	if err != nil {
		return rec, err
	}
	rec.Moran, rec.Geary, rec.G = *m, *c, *g
	return rec, nil
}

// TestPermutationPinned: I / C / G and every field of their permutation
// summaries (PermMean, PermStd, Z, P) are bit-equal to the recorded build
// for 3 seeds × 2 weight schemes × workers {1, 2, −1}, whichever way the
// weight matrix was built.
func TestPermutationPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/permutation_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []pinnedPerm
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	pins := make(map[string]pinnedPerm, len(recs))
	for _, r := range recs {
		pins[r.Name] = r
	}
	d := pinnedPermDataset()
	for _, scheme := range pinnedPermSchemes {
		for _, seed := range []int64{1, 42, 7001} {
			name := fmt.Sprintf("%s/seed=%d", scheme.name, seed)
			want, ok := pins[name]
			if !ok {
				t.Fatalf("no pin for %s", name)
			}
			for _, workers := range []int{1, 2, -1} {
				for _, columnar := range []bool{false, true} {
					w, err := scheme.build(d, columnar, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pinnedPermRun(d, w, name, seed, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s workers=%d columnar=%v moved off the pin:\n got %+v\nwant %+v", name, workers, columnar, got, want)
					}
				}
			}
		}
	}
}
