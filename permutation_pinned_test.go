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
// the dataset's columns and, where the facade still has one, through the
// []Point adapter (slice is nil otherwise).
var pinnedPermSchemes = []struct {
	name        string
	slice, cols func(d *Dataset, workers int) (*SpatialWeights, error)
}{
	{"knn8-rowstd",
		func(d *Dataset, workers int) (*SpatialWeights, error) {
			return rowStandardized(KNNWeightsWorkers(d.Points(), 8, workers))
		},
		func(d *Dataset, workers int) (*SpatialWeights, error) {
			return rowStandardized(KNNWeightsDataset(d, 8, workers))
		}},
	{"band6", nil,
		func(d *Dataset, workers int) (*SpatialWeights, error) {
			return DistanceBandWeightsDataset(d, 6, workers)
		}},
}

func rowStandardized(w *SpatialWeights, err error) (*SpatialWeights, error) {
	if err != nil {
		return nil, err
	}
	return w.RowStandardize(), nil
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
			builds := []func(*Dataset, int) (*SpatialWeights, error){scheme.cols}
			if scheme.slice != nil {
				builds = append(builds, scheme.slice)
			}
			for _, workers := range []int{1, 2, -1} {
				for via, build := range builds {
					w, err := build(d, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pinnedPermRun(d, w, name, seed, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s workers=%d build %d (0 columns, 1 []Point) moved off the pin:\n got %+v\nwant %+v", name, workers, via, got, want)
					}
				}
			}
		}
	}
}
