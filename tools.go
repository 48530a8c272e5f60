package geostat

import (
	"math/rand"

	"geostat/internal/cluster"
	"geostat/internal/getisord"
	"geostat/internal/idw"
	"geostat/internal/kriging"
	"geostat/internal/moran"
	"geostat/internal/stkdv"
	"geostat/internal/weights"
)

// ---- STKDV (spatiotemporal KDV, §2.2) ----

// STKDVOptions configures spatiotemporal KDV.
type STKDVOptions = stkdv.Options

// STKDVCube is an STKDV result: one density grid per time slice.
type STKDVCube = stkdv.Cube

// STKDV computes spatiotemporal kernel density with the shared (SWS-style)
// algorithm: each event's spatial footprint is computed once and spread
// across its temporal support.
func STKDV(d *Dataset, opt STKDVOptions) (*STKDVCube, error) { return stkdv.Shared(d, opt) }

// STKDVNaive computes spatiotemporal kernel density with the O(XYTn)
// baseline (works for any kernels).
func STKDVNaive(d *Dataset, opt STKDVOptions) (*STKDVCube, error) { return stkdv.Naive(d, opt) }

// ---- IDW (Table 1) ----

// IDWOptions configures inverse distance weighting.
type IDWOptions = idw.Options

// IDW interpolates with every sample per pixel — the O(XYn) baseline.
func IDW(d *Dataset, opt IDWOptions) (*Heatmap, error) { return idw.Naive(d, opt) }

// IDWKNN interpolates from the k nearest samples per pixel.
func IDWKNN(d *Dataset, opt IDWOptions, k int) (*Heatmap, error) { return idw.KNN(d, opt, k) }

// IDWRadius interpolates from the samples within a cutoff radius.
func IDWRadius(d *Dataset, opt IDWOptions, radius float64) (*Heatmap, error) {
	return idw.Radius(d, opt, radius)
}

// IDWCVResult is a leave-one-out cross-validation of IDW.
type IDWCVResult = idw.CVResult

// IDWLOOCV cross-validates kNN-IDW (tune power and k without ground
// truth).
func IDWLOOCV(d *Dataset, power float64, k int) (*IDWCVResult, error) {
	return idw.LOOCV(d, power, k)
}

// ---- Kriging (Table 1) ----

// VariogramModel selects the kriging variogram model.
type VariogramModel = kriging.Model

// Variogram models.
const (
	SphericalModel   = kriging.Spherical
	ExponentialModel = kriging.Exponential
	GaussianVModel   = kriging.GaussianModel
)

// Variogram is a fitted variogram γ(h).
type Variogram = kriging.Variogram

// VariogramBin is one lag bin of an empirical semivariogram.
type VariogramBin = kriging.EmpiricalBin

// KrigingOptions configures ordinary kriging.
type KrigingOptions = kriging.Options

// EmpiricalVariogram computes the binned empirical semivariogram of d's
// values up to maxLag.
func EmpiricalVariogram(d *Dataset, maxLag float64, bins int) ([]VariogramBin, error) {
	return kriging.Empirical(d, maxLag, bins)
}

// FitVariogram fits a model to empirical bins by weighted least squares.
func FitVariogram(bins []VariogramBin, model VariogramModel) (Variogram, error) {
	return kriging.Fit(bins, model)
}

// Krige performs ordinary kriging of d's values onto opt.Grid.
func Krige(d *Dataset, opt KrigingOptions) (*Heatmap, error) { return kriging.Interpolate(d, opt) }

// KrigingCVResult is a leave-one-out cross-validation of kriging.
type KrigingCVResult = kriging.CVResult

// KrigeLOOCVWorkers cross-validates ordinary kriging (compare variogram
// models or neighbourhood sizes without ground truth) with an explicit
// parallelism degree (0/1 serial, <0 GOMAXPROCS); residuals are
// bit-identical for every worker count.
func KrigeLOOCVWorkers(d *Dataset, v Variogram, neighbors, workers int) (*KrigingCVResult, error) {
	return kriging.LOOCVWorkers(d, v, neighbors, workers)
}

// ---- Spatial weights + autocorrelation (Table 1) ----

// SpatialWeights is a sparse spatial weight matrix.
type SpatialWeights = weights.Matrix

// KNNWeightsWorkers is KNNWeightsDataset over a point slice: it copies pts
// into a Dataset once, at this edge.
func KNNWeightsWorkers(pts []Point, k, workers int) (*SpatialWeights, error) {
	return KNNWeightsDataset(FromPoints(pts), k, workers)
}

// KNNWeightsDataset returns binary k-nearest-neighbour weights with an
// explicit parallelism degree (0/1 serial, <0 GOMAXPROCS); the matrix is
// bit-identical for every worker count. It shares structure across calls:
// the kd-tree belongs to the dataset, and so does the neighbour pattern of
// the last scheme asked of it, so a repeated k costs a fresh weight array
// and nothing else. Each call still returns its own matrix —
// RowStandardize on one never shows in another.
func KNNWeightsDataset(d *Dataset, k, workers int) (*SpatialWeights, error) {
	w, _, err := weights.KNNDataset(d, k, workers)
	return w, err
}

// DistanceBandWeightsDataset returns binary weights for 0 < dist <= radius
// with an explicit parallelism degree (0/1 serial, <0 GOMAXPROCS); the
// matrix is bit-identical for every worker count. It shares the neighbour
// pattern across calls like KNNWeightsDataset (a band averaging more than
// 32 neighbours per point is rebuilt per call).
func DistanceBandWeightsDataset(d *Dataset, radius float64, workers int) (*SpatialWeights, error) {
	w, _, err := weights.DistanceBandDataset(d, radius, workers)
	return w, err
}

// MoranOptions configures a Moran/Geary permutation test: Perms
// permutations from the deterministic Seed, fanned out across Workers.
type MoranOptions = moran.Options

// GetisOrdOptions configures the General G permutation test; it is the
// same type as MoranOptions (one permutation driver serves all three
// global statistics).
type GetisOrdOptions = getisord.Options

// MoranResult is a global Moran's I with its permutation test.
type MoranResult = moran.Result

// LocalMoranResult is one site's LISA statistic.
type LocalMoranResult = moran.LocalResult

// MoranIOpt computes global Moran's I with a permutation test when
// opt.Perms > 0 (deterministic seed, worker-count-invariant results).
func MoranIOpt(values []float64, w *SpatialWeights, opt MoranOptions) (*MoranResult, error) {
	return moran.GlobalOpt(values, w, opt)
}

// LocalMoranOpt computes local Moran's I (LISA) for every site, with
// permutation z-scores when opt.Perms > 0 (deterministic seed,
// worker-count-invariant z-scores).
func LocalMoranOpt(values []float64, w *SpatialWeights, opt MoranOptions) ([]LocalMoranResult, error) {
	return moran.LocalOpt(values, w, opt)
}

// GearyResult is a global Geary's C with its permutation test.
type GearyResult = moran.GearyResult

// GearyCOpt computes Geary's contiguity ratio (E[C]=1; C<1 positive
// autocorrelation, C>1 negative), the local-difference complement to
// Moran's I, with a permutation test when opt.Perms > 0 (deterministic
// seed, worker-count-invariant results).
func GearyCOpt(values []float64, w *SpatialWeights, opt MoranOptions) (*GearyResult, error) {
	return moran.GearyOpt(values, w, opt)
}

// MoranQuadrant is a Moran-scatterplot quadrant (HH/LL/HL/LH).
type MoranQuadrant = moran.Quadrant

// Moran scatterplot quadrants.
const (
	QuadrantHH = moran.HH
	QuadrantLL = moran.LL
	QuadrantHL = moran.HL
	QuadrantLH = moran.LH
)

// MoranQuadrants classifies every site on the Moran scatterplot — combined
// with LocalMoranOpt z-scores this is the LISA cluster map.
func MoranQuadrants(values []float64, w *SpatialWeights) ([]MoranQuadrant, error) {
	return moran.Quadrants(values, w)
}

// CorrelogramPoint is Moran's I at one distance-band radius.
type CorrelogramPoint = moran.CorrelogramPoint

// MoranCorrelogram computes Moran's I of values (one per point of d)
// across increasing distance bands — how autocorrelation decays with
// scale. The band weights share d's neighbour pattern like
// DistanceBandWeightsDataset.
func MoranCorrelogram(d *Dataset, values []float64, radii []float64, perms int, rng *rand.Rand) ([]CorrelogramPoint, error) {
	return moran.Correlogram(d, values, radii, perms, rng)
}

// GeneralGResult is a global Getis-Ord General G with its permutation test.
type GeneralGResult = getisord.GeneralGResult

// GeneralGOpt computes Getis-Ord General G with a permutation test when
// opt.Perms > 0 (deterministic seed, worker-count-invariant results).
func GeneralGOpt(values []float64, w *SpatialWeights, opt GetisOrdOptions) (*GeneralGResult, error) {
	return getisord.GeneralGOpt(values, w, opt)
}

// LocalGStar computes per-site Gi* hot/cold-spot z-scores.
func LocalGStar(values []float64, w *SpatialWeights) ([]float64, error) {
	return getisord.LocalGStar(values, w)
}

// ---- Clustering ----

// DBSCANNoise is the label of points in no DBSCAN cluster.
const DBSCANNoise = cluster.Noise

// DBSCAN clusters d's points with grid-index-accelerated DBSCAN.
func DBSCAN(d *Dataset, eps float64, minPts int) ([]int, error) {
	return cluster.DBSCAN(d.Columns(), eps, minPts)
}

// DBSCANNaive clusters d's points with the O(n²) baseline.
func DBSCANNaive(d *Dataset, eps float64, minPts int) ([]int, error) {
	return cluster.DBSCANNaive(d.Columns(), eps, minPts)
}

// NumClusters returns the number of distinct non-noise DBSCAN labels.
func NumClusters(labels []int) int { return cluster.NumClusters(labels) }

// KMeansResult holds a k-means clustering.
type KMeansResult = cluster.KMeansResult

// KMeans runs Lloyd's algorithm with k-means++ seeding over d's points.
func KMeans(d *Dataset, k, maxIters int, rng *rand.Rand) (*KMeansResult, error) {
	return cluster.KMeans(d.Columns(), k, maxIters, rng)
}
