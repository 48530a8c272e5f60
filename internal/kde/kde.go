// Package kde implements kernel density visualization (KDV, Definition 1 of
// the paper): colouring each pixel q of an X×Y raster with the kernel
// density value F_P(q) = Σ_p w·K(q, p), where w is one normalising
// constant (Options.Normalize).
//
// Evaluate is the single full-raster entry point. The paper's §2.2
// acceleration families are interchangeable ways to fill the same raster,
// and the package treats them that way: each is one row of the method table
// (a constructor plus its capabilities as data) behind one driver.
//
//   - Naive: the exact baseline. For Gaussian and exponential kernels it
//     is the O(XYn) pixel-major sum every off-the-shelf GIS package uses;
//     for finite-support kernels each raster row scatters the points into
//     their footprint on it (geom.Footprint), O(Y·(n + Σ footprint)),
//     with the same bits as the pixel-major sum.
//   - GridCutoff: exact for finite-support kernels; a bucket index limits
//     each pixel to the points inside the kernel support.
//   - SweepLine: the computational-sharing family (SLAM [32]); exact for
//     kernels polynomial in squared distance (uniform, Epanechnikov,
//     quartic, triweight) in O(Y·(X+n)) time via per-row polynomial
//     coefficient aggregation; points enter and leave at their footprint.
//   - BoundApprox: the function-approximation family (QUAD [25], KARL [34]);
//     works for every kernel including Gaussian, refining KARL's per-node
//     bounds on the dataset snapshot's kd-tree per pixel until UB/LB ≤ 1+ε
//     (Equation 6's guarantee).
//   - Sampled: the data-sampling family ([77–79, 110, 111]); a uniform
//     random subset sized by a Hoeffding bound gives an additive error
//     guarantee with probability 1−δ.
//
// Every method reads the columnar dataset.Columns layout and returns a
// raster.Grid; Workers > 1 parallelises over raster rows (the paper's
// parallel/hardware family, realised as goroutine sharding).
package kde

import (
	"context"
	"fmt"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/obs"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Method selects the KDV algorithm (§2.2's acceleration families).
type Method int

const (
	// Auto picks the fastest exact method whose kernel requirement holds:
	// sweep line for polynomial kernels, grid cutoff for other
	// finite-support kernels, naive otherwise.
	Auto Method = iota
	// Naive is the exact baseline: the O(XYn) pixel-major sum for
	// infinite-support kernels, and a point-major row scatter with the
	// same bits for finite-support ones.
	Naive
	// GridCutoff is exact for finite-support kernels via a bucket index.
	GridCutoff
	// SweepLine is the exact O(Y(X+n)) computational-sharing algorithm
	// (SLAM family) for kernels polynomial in squared distance.
	SweepLine
	// BoundApprox is the (1±ε) function-approximation algorithm (QUAD/KARL
	// family); works for every kernel, including Gaussian. It refines KARL's
	// chord / Jensen node bounds on the snapshot's memoised kd-tree
	// (dataset.Columns.Tree), so a dataset's columns build no index per call.
	BoundApprox
	// Sampled is the Hoeffding-sampling approximation.
	Sampled
)

// String returns the method name.
func (m Method) String() string {
	if m == Auto {
		return "auto"
	}
	for i := range methods {
		if methods[i].id == m {
			return methods[i].name
		}
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a method name, one String returns: "auto" or a
// method table row's name.
func ParseMethod(name string) (Method, error) {
	if name == "auto" {
		return Auto, nil
	}
	for i := range methods {
		if methods[i].name == name {
			return methods[i].id, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", name)
}

// Options configures a KDV computation.
type Options struct {
	// Kernel is the kernel function K and bandwidth b.
	Kernel kernel.Kernel
	// Grid is the raster over which F is evaluated.
	Grid geom.PixelGrid
	// Normalize scales the surface by NormConst/n so it integrates to ~1
	// (a probability density). False matches the paper's raw Σ K
	// convention.
	Normalize bool
	// Workers is the parallelism degree; 0 or 1 is serial, negative means
	// GOMAXPROCS.
	Workers int
	// Ctx optionally bounds the computation: workers check it between row
	// chunks and Evaluate returns ctx.Err() (with a nil grid) when it
	// fires. Nil means no cancellation (context.Background()).
	Ctx context.Context
	// Window optionally restricts evaluation to a pixel sub-rectangle of
	// Grid (the shard coordinator's tile unit). Pixel centers still come
	// from the full Grid — Center(Window.X0+ix, Window.Y0+iy) — so a
	// windowed raster is bit-identical to the corresponding window of the
	// full-extent result. The zero value means the whole grid. Methods
	// without the window capability reject it rather than silently
	// evaluating the full grid.
	Window geom.GridWindow
	// Epsilon is BoundApprox's relative error guarantee (Equation 6) and
	// Sampled's additive error as a fraction of Kmax.
	Epsilon float64
	// Delta is Sampled's failure probability.
	Delta float64
	// Seed drives Sampled's subset draw: the same (columns, options) always
	// yield the same surface.
	Seed int64
}

// context returns the effective context of the computation.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// scale returns the multiplier normalisation applies to raw kernel sums
// over n points.
func (o *Options) scale(n int) float64 {
	if !o.Normalize || n == 0 {
		return 1
	}
	return o.Kernel.NormConst() / float64(n)
}

// validate rejects inputs that would otherwise fail deep in a worker
// goroutine.
func (o *Options) validate() error {
	if o.Kernel.Bandwidth() <= 0 {
		return fmt.Errorf("kde: kernel not initialised (zero bandwidth); use kernel.New")
	}
	if o.Grid.NX <= 0 || o.Grid.NY <= 0 {
		return fmt.Errorf("kde: grid not initialised (%dx%d)", o.Grid.NX, o.Grid.NY)
	}
	if !o.Window.IsZero() {
		return o.Grid.CheckWindow(o.Window)
	}
	return nil
}

// Capability names something a request can need that a method may lack.
type Capability string

const (
	// CapWindow is a non-zero Options.Window.
	CapWindow Capability = "windowed evaluation (Options.Window)"
	// CapInfiniteKernel is a kernel without finite support (Gaussian,
	// exponential).
	CapInfiniteKernel Capability = "infinite-support kernels"
	// CapNonPolynomialKernel is a kernel that is not a polynomial in
	// squared distance (anything but uniform, Epanechnikov, quartic,
	// triweight).
	CapNonPolynomialKernel Capability = "kernels not polynomial in squared distance"
)

// UnsupportedError reports a (method, request) combination outside the
// method table's declared capabilities. For Auto, Method is the method the
// kernel resolved to.
type UnsupportedError struct {
	Method     Method
	Capability Capability
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("kde: %v does not support %s", e.Method, e.Capability)
}

// kernelClass is a method's kernel requirement, as data.
type kernelClass int

const (
	anyKernel     kernelClass = iota
	finiteSupport             // K(d) = 0 beyond the bandwidth
	polynomialD2              // K is a polynomial in d²/b² inside the support
)

// missing returns the capability a method of class c lacks for kernel k,
// or "" when k satisfies the requirement.
func (c kernelClass) missing(k kernel.Kernel) Capability {
	switch {
	case c == finiteSupport && !k.FiniteSupport():
		return CapInfiniteKernel
	case c == polynomialD2 && !SweepSupported(k.Type()):
		return CapNonPolynomialKernel
	}
	return ""
}

// rowComputer computes one raster row of kernel sums (unscaled). Row
// computations must be independent so the driver can shard them across
// goroutines.
type rowComputer interface {
	computeRow(iy int, row []float64)
}

// methodRow is one line of the method table: everything the driver needs
// to know about an algorithm.
type methodRow struct {
	id   Method
	name string
	// exact marks the methods Auto may resolve to.
	exact bool
	// window says whether the evaluator honours a windowed row loop
	// (parent-grid pixel indices with an x offset).
	window bool
	// kernels is the kernel requirement.
	kernels kernelClass
	// build constructs the evaluator. gain is the factor that turns its raw
	// row sums into Σ K over cols: 1 for every method that reads all of
	// cols, n/m for a subset estimator.
	build func(cols dataset.Columns, opt *Options) (rc rowComputer, gain float64, err error)
}

// methods is the method table, exact rows first in Auto's preference order
// (fastest applicable first). Adding a method is adding a row; the
// capability-matrix test walks this table, so a new row cannot go untested.
var methods []methodRow

func init() {
	// Assigned in init because buildSampled resolves its inner exact
	// method through the table.
	methods = []methodRow{
		{id: SweepLine, name: "sweep-line", exact: true, kernels: polynomialD2, build: buildSweep},
		{id: GridCutoff, name: "grid-cutoff", exact: true, kernels: finiteSupport, build: buildCutoff},
		{id: Naive, name: "naive", exact: true, window: true, kernels: anyKernel, build: buildNaive},
		{id: BoundApprox, name: "bound-approx", kernels: anyKernel, build: buildBound},
		{id: Sampled, name: "sampled", kernels: anyKernel, build: buildSampled},
	}
}

// lookup returns m's table row, resolving Auto to the first exact row
// whose kernel requirement k satisfies (Naive accepts every kernel, so
// there always is one). It returns nil for an unknown method.
func lookup(m Method, k kernel.Kernel) *methodRow {
	for i := range methods {
		r := &methods[i]
		if r.id == m || m == Auto && r.exact && r.kernels.missing(k) == "" {
			return r
		}
	}
	return nil
}

// check compares the request against the row's declared capabilities.
func (r *methodRow) check(opt *Options) error {
	lacks := r.kernels.missing(opt.Kernel)
	if lacks == "" && !opt.Window.IsZero() && !r.window {
		lacks = CapWindow
	}
	if lacks == "" {
		return nil
	}
	return &UnsupportedError{Method: r.id, Capability: lacks}
}

// Evaluate computes the KDV raster of cols over opt.Grid with method m:
// each pixel holds Σ K over every point, scaled only by Options.Normalize's
// constant. It is the one place that validates options, checks the
// method's capabilities, clips the points to the view, traces, windows,
// cancels and normalises; a combination the method table does not declare
// returns a *UnsupportedError.
func Evaluate(cols dataset.Columns, m Method, opt Options) (*raster.Grid, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	row := lookup(m, opt.Kernel)
	if row == nil {
		return nil, fmt.Errorf("kde: unknown method %d", int(m))
	}
	if err := row.check(&opt); err != nil {
		return nil, err
	}
	_, span := obs.Trace(opt.context(), "kde.index_build")
	view := inView(cols, &opt)
	span.SetAttrInt("points_in_view", int64(view.N()))
	rc, gain, err := row.build(view, &opt)
	if bc, ok := rc.(*boundComputer); ok {
		span.SetAttrHit("tree", !bc.built) // the snapshot's memo served it
	}
	span.End()
	if err != nil {
		return nil, err
	}
	return run(rc, &opt, cols.N(), gain*opt.scale(cols.N()))
}

// inView returns the points that can reach the raster: for a finite-support
// kernel, those inside the evaluated pixel box padded by the support radius
// (geom.PixelGrid.SupportBox, the shard planner's halo rule), in their
// original order. A point outside that box is farther than the support
// radius from every pixel center, so its kernel value is exactly 0 at each;
// the evaluators skip zero terms rather than add them, so dropping it leaves
// every sum — and for Naive every bit — as it was. What the clip must not
// change is the normalising mass, which Evaluate keeps taking from the
// unclipped columns. Infinite-support kernels reach everywhere and are
// returned as is.
func inView(cols dataset.Columns, opt *Options) dataset.Columns {
	if !opt.Kernel.FiniteSupport() {
		return cols
	}
	return cols.FilterBox(opt.Grid.SupportBox(opt.Window, opt.Kernel.SupportRadius()))
}

// run evaluates every row of opt.Grid through rc and multiplies the result
// by scale, serially or with opt.Workers goroutines (dynamically scheduled
// through internal/parallel). When opt.Ctx fires mid-run the partial grid
// is discarded and ctx.Err() returned.
//
// With a non-zero opt.Window (validated by the caller) only the window's
// rows are evaluated and the output grid is window-sized (Spec = SubGrid of the window): computeRow
// receives the PARENT row index and a window-wide row, so centers match the
// full-extent raster bit-for-bit. Only computers that apply the window's x
// offset may be run windowed — the method table's window bit.
func run(rc rowComputer, opt *Options, n int, scale float64) (*raster.Grid, error) {
	win, spec := opt.Grid.FullWindow(), opt.Grid
	if !opt.Window.IsZero() {
		win, spec = opt.Window, opt.Grid.SubGrid(opt.Window)
	}
	out := raster.NewGrid(spec)
	nx := win.NX
	ctx, span := obs.Trace(opt.context(), "kde.evaluate")
	defer span.End()
	span.SetAttrInt("points", int64(n))
	if err := parallel.ForCtx(ctx, win.NY, opt.Workers, func(iy int) {
		rc.computeRow(win.Y0+iy, out.Values[iy*nx:(iy+1)*nx])
	}); err != nil {
		return nil, err
	}
	switch c := rc.(type) {
	case *boundComputer:
		span.SetAttrInt("refinements", c.expanded.Load())
	case *cutoffComputer:
		span.SetAttrInt("candidates", c.candidates.Load())
		span.SetAttrInt("terms", c.terms.Load())
	}
	//lint:allow floateq scale==1 is an exact sentinel for "no normalisation"
	if scale != 1 {
		for i := range out.Values {
			out.Values[i] *= scale
		}
	}
	return out, nil
}
