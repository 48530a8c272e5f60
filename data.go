package geostat

import (
	"io"
	"math/rand"

	"geostat/internal/dataset"
)

// Synthetic dataset generators — the deterministic stand-ins for the
// paper's access-gated real datasets (see DESIGN.md). All take an explicit
// *rand.Rand for reproducibility.

// GaussianCluster describes one planted hotspot.
type GaussianCluster = dataset.Cluster

// OutbreakWave describes one spatiotemporal outbreak wave.
type OutbreakWave = dataset.Wave

// UniformCSR returns n points uniform over box (complete spatial
// randomness — the K-function null model).
func UniformCSR(rng *rand.Rand, n int, box BBox) *Dataset {
	return dataset.UniformCSR(rng, n, box)
}

// GaussianClusters returns n points from a Gaussian-mixture hotspot process
// plus a uniform noise fraction.
func GaussianClusters(rng *rand.Rand, n int, box BBox, clusters []GaussianCluster, noise float64) *Dataset {
	return dataset.GaussianClusters(rng, n, box, clusters, noise)
}

// MaternCluster returns a Matérn cluster process (parents with Poisson
// children in discs) — the classic clustered null-alternative.
func MaternCluster(rng *rand.Rand, box BBox, kappa, mu, radius float64) *Dataset {
	return dataset.MaternCluster(rng, box, kappa, mu, radius)
}

// Dispersed returns n points from a sequential inhibition process (points
// repel within minDist).
func Dispersed(rng *rand.Rand, n int, box BBox, minDist float64) *Dataset {
	return dataset.Dispersed(rng, n, box, minDist)
}

// SpatioTemporalOutbreak returns n events from the given waves plus
// uniform space-time noise — the Figure 4/6 scenario.
func SpatioTemporalOutbreak(rng *rand.Rand, n int, box BBox, t0, t1 float64, waves []OutbreakWave, noise float64) *Dataset {
	return dataset.SpatioTemporalOutbreak(rng, n, box, t0, t1, waves, noise)
}

// WithField attaches measured values to d by sampling field plus Gaussian
// noise (input shape for IDW/Kriging/Moran/Getis-Ord).
func WithField(rng *rand.Rand, d *Dataset, field func(Point) float64, noiseSigma float64) *Dataset {
	return dataset.WithField(rng, d, field, noiseSigma)
}

// FromPoints builds a Dataset from points. The input slice is copied into
// the dataset's columnar storage and is not retained; callers may reuse or
// mutate pts afterwards.
func FromPoints(pts []Point) *Dataset { return dataset.FromPoints(pts) }

// NewDataset builds a Dataset from points plus optional parallel times and
// values columns (nil to omit), copying all three. Column lengths must match
// len(pts) and all entries must be finite.
func NewDataset(pts []Point, times, values []float64) (*Dataset, error) {
	return dataset.New(pts, times, values)
}

// SampleFromIntensity draws n points from an unnormalised intensity
// surface (e.g. a fitted Heatmap's Values) — the simulator behind
// inhomogeneous null models.
func SampleFromIntensity(rng *rand.Rand, spec PixelGrid, values []float64, n int) (*Dataset, error) {
	return dataset.SampleFromIntensity(rng, spec, values, n)
}

// ReadCSV reads a dataset (header x,y[,t][,value]).
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// WriteCSV writes d in the same CSV layout.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// ReadCSVFile reads a dataset from a file.
func ReadCSVFile(path string) (*Dataset, error) { return dataset.ReadCSVFile(path) }

// WriteCSVFile writes a dataset to a file.
func WriteCSVFile(path string, d *Dataset) error { return dataset.WriteCSVFile(path, d) }
