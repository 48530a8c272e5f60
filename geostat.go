// Package geostat is a from-scratch, stdlib-only Go toolkit for large-scale
// geospatial analytics, reproducing the tool suite surveyed in
// "Large-scale Geospatial Analytics: Problems, Challenges, and
// Opportunities" (Chan, U, Choi, Xu, Cheng — SIGMOD-Companion 2023).
//
// Hotspot detection (Table 1 of the paper):
//
//   - KDV — kernel density visualization, with the naive O(XYn) baseline
//     and three accelerated paths: exact grid-cutoff, the SLAM-style exact
//     sweep line, (1±ε) bound-based approximation, and Hoeffding-sampled
//     approximation. Variants: NKDV (road networks), STKDV (space-time).
//   - IDW — inverse distance weighting (naive, kNN, cutoff radius).
//   - Kriging — ordinary kriging with variogram fitting.
//
// Correlation analysis:
//
//   - KFunction — Ripley's K with Monte-Carlo envelope plots; network and
//     spatiotemporal variants.
//   - MoranIOpt / LocalMoranOpt — global and local spatial autocorrelation.
//   - GeneralGOpt / LocalGStar — Getis-Ord concentration statistics.
//   - DBSCAN / KMeans — spatial clustering.
//
// The package is a facade: each tool lives in its own internal package and
// is re-exported here with one entry point and a uniform, option-struct
// API. Tools read their points from a *Dataset (FromPoints adapts a
// []Point once). Every tool takes explicit options, returns errors rather
// than panicking, and is deterministic given a seeded *rand.Rand.
//
// # Cancellation
//
// The heavy entry points are cancellable: KDVOptions, IDWOptions,
// KPlotOptions, MoranOptions and GetisOrdOptions carry an optional Ctx
// field (and KDVDatasetCtx / KFunctionCurveCtx accept a context
// directly). Worker pools inside internal/parallel check the context
// between work chunks, so
// a per-request timeout or client disconnect stops the computation within
// one chunk (≤ 256 iterations) and the entry point returns ctx.Err(). A
// nil Ctx means no cancellation; results are bit-identical whether or not
// a (live) context is supplied. This is what lets the geostatd serving
// layer (cmd/geostatd, internal/serve) abandon abandoned requests without
// leaking goroutines.
package geostat

import (
	"math/rand"

	"geostat/internal/dataset"
	"geostat/internal/geojson"
	"geostat/internal/geom"
	"geostat/internal/kde"
	"geostat/internal/kernel"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// NewRand returns a seeded random generator for the APIs that take a
// *rand.Rand (dataset generators, envelope plots, permutation tests).
// It is the only sanctioned constructor: building generators here keeps
// every random draw reproducible from a recorded seed, and the geolint
// seededrand analyzer flags ad-hoc rand.New / math/rand globals in
// production code.
func NewRand(seed int64) *rand.Rand { return parallel.NewRand(seed) }

// Point is a planar location (projected coordinates).
type Point = geom.Point

// BBox is an axis-aligned bounding box.
type BBox = geom.BBox

// NewBBox returns the bounding box of pts.
func NewBBox(pts []Point) BBox { return geom.NewBBox(pts) }

// PixelGrid is the X×Y evaluation raster of Definition 1.
type PixelGrid = geom.PixelGrid

// GridWindow selects a pixel sub-rectangle of a PixelGrid — the tile unit
// of sharded (windowed) KDV evaluation. The zero value means the whole
// grid.
type GridWindow = geom.GridWindow

// NewPixelGrid returns an nx×ny pixel grid over box.
func NewPixelGrid(box BBox, nx, ny int) PixelGrid { return geom.NewPixelGrid(box, nx, ny) }

// Heatmap is an evaluated surface: one float64 per grid pixel, with PNG and
// ASCII rendering.
type Heatmap = raster.Grid

// HeatRamp and GrayRamp are the built-in color ramps for Heatmap rendering.
var (
	HeatRamp = raster.HeatRamp
	GrayRamp = raster.GrayRamp
)

// ContourSegment is one straight piece of a Heatmap iso-line.
type ContourSegment = raster.Segment

// CountGrid rasterises d's points into per-pixel counts (the aggregation
// step for grid-based statistics such as Gi* hot-spot maps).
func CountGrid(d *Dataset, spec PixelGrid) *Heatmap {
	cols := d.Columns()
	return raster.CountGrid(cols.X, cols.Y, spec)
}

// GeoJSON is a GeoJSON FeatureCollection builder for exporting events,
// contour outlines, and significant grid cells to QGIS/ArcGIS/web maps —
// the software-integration direction of the paper's §2.4.
type GeoJSON = geojson.FeatureCollection

// NewGeoJSON returns an empty GeoJSON feature collection.
func NewGeoJSON() *GeoJSON { return geojson.NewCollection() }

// ParseGeoJSON decodes and validates a GeoJSON FeatureCollection —
// the inverse of GeoJSON.Write.
func ParseGeoJSON(data []byte) (*GeoJSON, error) { return geojson.Parse(data) }

// ReadGeoJSONFile decodes a GeoJSON FeatureCollection from a file.
func ReadGeoJSONFile(path string) (*GeoJSON, error) { return geojson.ReadFile(path) }

// Dataset is a location dataset with optional event times and measured
// values (see the dataset generators in this package).
type Dataset = dataset.Dataset

// Kernel is a bandwidth-bound kernel function (Table 2 of the paper).
type Kernel = kernel.Kernel

// KernelType selects the kernel function.
type KernelType = kernel.Type

// Kernel types. Uniform, Epanechnikov, Quartic and Gaussian are the
// paper's Table 2; the rest are the additional kernels §2.4 names.
const (
	Uniform      = kernel.Uniform
	Triangular   = kernel.Triangular
	Epanechnikov = kernel.Epanechnikov
	Quartic      = kernel.Quartic
	Triweight    = kernel.Triweight
	Gaussian     = kernel.Gaussian
	Cosine       = kernel.Cosine
	Exponential  = kernel.Exponential
)

// NewKernel returns a kernel of the given type with bandwidth b > 0.
func NewKernel(t KernelType, b float64) (Kernel, error) { return kernel.New(t, b) }

// MustKernel is NewKernel that panics on error (for tests and constants).
func MustKernel(t KernelType, b float64) Kernel { return kernel.MustNew(t, b) }

// ParseKernel resolves a kernel name ("gaussian", "quartic", ...).
func ParseKernel(name string) (KernelType, error) { return kernel.Parse(name) }

// ParseKDVMethod resolves a KDV method name ("auto", "naive",
// "grid-cutoff", ...), the names KDVMethod.String returns.
func ParseKDVMethod(name string) (KDVMethod, error) { return kde.ParseMethod(name) }

// AllKernels returns every supported kernel type.
func AllKernels() []KernelType { return kernel.All() }
