package geostat

import (
	"context"

	"geostat/internal/dataset"
	"geostat/internal/kde"
)

// KDVMethod selects the KDV algorithm (§2.2's acceleration families). It is
// the method enum of the one evaluator pipeline, kde.Evaluate.
type KDVMethod = kde.Method

const (
	// KDVAuto picks the fastest exact method for the kernel: sweep line for
	// polynomial kernels, grid cutoff for other finite-support kernels,
	// naive otherwise.
	KDVAuto = kde.Auto
	// KDVNaive is the exact baseline: the O(XYn) pixel-major sum for
	// Gaussian and exponential kernels, and a point-major row scatter with
	// the same bits for finite-support ones.
	KDVNaive = kde.Naive
	// KDVGridCutoff is exact for finite-support kernels via a bucket index.
	KDVGridCutoff = kde.GridCutoff
	// KDVSweepLine is the exact O(Y(X+n)) computational-sharing algorithm
	// (SLAM family) for kernels polynomial in squared distance.
	KDVSweepLine = kde.SweepLine
	// KDVBoundApprox is the (1±ε) function-approximation algorithm
	// (QUAD/KARL family); works for every kernel, including Gaussian.
	KDVBoundApprox = kde.BoundApprox
	// KDVSampled is the Hoeffding-sampling approximation.
	KDVSampled = kde.Sampled
)

// KDVOptions configures KDV (Definition 1 of the paper): every event
// counts once, and Definition 1's w is the one constant Normalize applies.
type KDVOptions struct {
	// Kernel is K and its bandwidth b.
	Kernel Kernel
	// Grid is the output raster.
	Grid PixelGrid
	// Method selects the algorithm; KDVAuto by default.
	Method KDVMethod
	// Normalize scales the surface into a probability density.
	Normalize bool
	// Workers parallelises raster rows; 0/1 serial, <0 GOMAXPROCS.
	Workers int

	// Epsilon is the relative error guarantee for KDVBoundApprox
	// (Equation 6) and the fractional additive error for KDVSampled.
	Epsilon float64
	// Delta is KDVSampled's failure probability.
	Delta float64
	// Seed drives KDVSampled's subset draw; the same (points, options,
	// Seed) always yields the same surface.
	Seed int64
	// Ctx optionally bounds the computation (per-request timeouts, client
	// disconnects): raster workers check it between row chunks and KDV
	// returns ctx.Err() with a nil surface when it fires. Nil means no
	// cancellation. KDVDatasetCtx sets this field from its argument.
	Ctx context.Context
	// Window optionally restricts evaluation to a pixel sub-rectangle of
	// Grid (the shard coordinator's tile unit). Pixel centers come from the
	// full Grid, so the windowed raster is bit-identical to the matching
	// window of the full-extent result. Supported by KDVNaive only; other
	// methods reject it. Zero value = whole grid.
	Window GridWindow
}

// KDVDataset computes a kernel density surface over opt.Grid: each pixel
// sums K over every event of d, each event counting once (Definition 1).
// Every method reads the dataset's columnar storage in place, through the
// one evaluator pipeline (kde.Evaluate); a method/option combination
// outside the method's declared capabilities returns a
// *kde.UnsupportedError.
func KDVDataset(d *Dataset, opt KDVOptions) (*Heatmap, error) {
	return kde.Evaluate(d.Columns(), opt.Method, kde.Options{
		Kernel:    opt.Kernel,
		Grid:      opt.Grid,
		Normalize: opt.Normalize,
		Workers:   opt.Workers,
		Ctx:       opt.Ctx,
		Window:    opt.Window,
		Epsilon:   opt.Epsilon,
		Delta:     opt.Delta,
		Seed:      opt.Seed,
	})
}

// KDVDatasetCtx is KDVDataset bounded by ctx: the computation stops between
// row chunks once ctx is cancelled or times out and the error is
// ctx.Err(). Equivalent to setting opt.Ctx.
func KDVDatasetCtx(ctx context.Context, d *Dataset, opt KDVOptions) (*Heatmap, error) {
	opt.Ctx = ctx
	return KDVDataset(d, opt)
}

// SweepLineSupports reports whether the sweep-line method handles the
// kernel type (uniform, Epanechnikov, quartic, triweight).
func SweepLineSupports(t KernelType) bool { return kde.SweepSupported(t) }

// KDVSampleBound returns the Hoeffding subset size KDVSampled would use for
// the given raster size and (eps, delta) guarantee.
func KDVSampleBound(numPixels int, eps, delta float64) (int, error) {
	return kde.SampleBound(numPixels, eps, delta)
}

// KDVMultiBandwidth computes exact KDV surfaces for several bandwidths of
// one polynomial kernel in a single pass (the SAFE bandwidth-exploration
// sharing of §2.2): each extra bandwidth costs O(1) per pixel instead of a
// full support scan. Bandwidths must be strictly increasing.
func KDVMultiBandwidth(d *Dataset, grid PixelGrid, typ KernelType, bandwidths []float64, workers int) ([]*Heatmap, error) {
	return kde.MultiBandwidth(d.Columns(), grid, typ, bandwidths, workers)
}

// KDVAdaptive computes a sample-point adaptive KDV: every point carries its
// own bandwidth (finite-support kernels only).
func KDVAdaptive(d *Dataset, bandwidths []float64, typ KernelType, grid PixelGrid, workers int) (*Heatmap, error) {
	return kde.Adaptive(d.Columns(), bandwidths, typ, grid, workers)
}

// AdaptiveBandwidths derives per-point bandwidths from the k-th
// nearest-neighbour distance (scaled, floored) — the standard pilot for
// KDVAdaptive.
func AdaptiveBandwidths(d *Dataset, k int, scale, minBandwidth float64) ([]float64, error) {
	return kde.AdaptiveBandwidths(d.Columns(), k, scale, minBandwidth)
}

// SilvermanBandwidth returns the 2-D normal-reference pilot bandwidth
// σ̂·n^{−1/6}.
func SilvermanBandwidth(pts []Point) (float64, error) {
	return kde.SilvermanBandwidth(dataset.MakeColumns(pts))
}

// SilvermanBandwidthDataset is SilvermanBandwidth over a Dataset's columns
// (no []Point materialisation).
func SilvermanBandwidthDataset(d *Dataset) (float64, error) {
	return kde.SilvermanBandwidth(d.Columns())
}

// SelectBandwidthCV picks the candidate bandwidth with the best held-out
// log-likelihood over random folds (finite-support kernels). The fold
// shuffle is reproducible from seed.
func SelectBandwidthCV(d *Dataset, typ KernelType, candidates []float64, folds int, seed int64) (float64, error) {
	return kde.SelectBandwidthCV(d.Columns(), typ, candidates, folds, seed)
}

// KDVStream maintains a KDV surface under event insertions/removals (live
// hotspot maps over streaming data).
type KDVStream = kde.Stream

// NewKDVStream returns an empty streaming KDV surface (finite-support
// kernels).
func NewKDVStream(k Kernel, grid PixelGrid) (*KDVStream, error) { return kde.NewStream(k, grid) }

// KDVWindowStream drives a KDVStream over a time-ordered event log with a
// sliding window.
type KDVWindowStream = kde.WindowStream

// NewKDVWindowStream sorts d's events by their times (d.Times()) and
// returns a sliding-window driver of the given width.
func NewKDVWindowStream(k Kernel, grid PixelGrid, d *Dataset, width float64) (*KDVWindowStream, error) {
	return kde.NewWindowStream(k, grid, d, width)
}
