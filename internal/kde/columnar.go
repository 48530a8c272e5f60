package kde

import (
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// This file holds the columnar exact evaluation core. The inner loops
// iterate coordinate column segments (dataset chunks, or the grid index's
// cell-ordered columns) with the kernel specialised per type, instead of
// calling Kernel.Eval2 through a switch per point. Each specialisation
// reproduces Eval2's arithmetic expression for its type exactly — same
// IEEE operations in the same order — and terms that cannot change the
// running sum are skipped rather than added: terms the kernel maps to zero
// (adding +0.0 never changes an IEEE sum), and Gaussian / exponential terms
// the sum absorbs (absorbThreshold). So results stay bit-identical to the
// pre-columnar array-of-structs loops.

// chunkEval folds one coordinate column segment into a running kernel sum:
// it returns sum plus the kernel contributions of points (xs[i], ys[i]) at
// query (qx, qy), and the number of those points inside the kernel's
// support (every point, for Gaussian and exponential). Accumulation order
// is the slice order, so callers control the exact floating-point
// summation order by how they segment the columns.
type chunkEval func(sum, qx, qy float64, xs, ys []float64) (float64, int)

// Bounds on the argument t of an exp(t) term (see absorbThreshold).
const (
	// expUnderflow: for every t < −746 math.Exp returns exactly +0 (the
	// pure-Go, amd64 and arm64 implementations all cut off near −745.13;
	// TestExpUnderflowIsExactZero checks the platform's own).
	expUnderflow = -746
	// expNormal: exp(t) ≥ 2⁻¹⁰²² for t ≥ −708, so math.Exp's 1-ulp error is
	// relative there, not the absolute error of a subnormal result.
	expNormal = -708
)

// absorbThreshold returns thr such that a term exp(t) with t < thr leaves
// a running sum s unchanged, bit for bit: fl(s + exp(t)) = s. key is s's
// sign and exponent bits (math.Float64bits(s) >> 52), so thr holds until an
// add changes them.
//
// For normal s with 2^E ≤ |s| < 2^(E+1) the floats next to s lie at least
// 2^(E−53) away, so under round-to-nearest every |τ| < 2^(E−54) gives
// fl(s+τ) = s. math.Exp is within 1 ulp, so t < (E−55)·ln 2 gives
// exp(t) < 2^(E−54) with a factor-2 margin, while exp is normal at that
// bound (expNormal). Otherwise — s = 0, subnormal or tiny, or s not finite
// — thr is expUnderflow: only t < expUnderflow is skipped, where exp
// returns exactly +0, which never moves a sum that, starting from +0, is
// never −0.
func absorbThreshold(key uint64) float64 {
	e := int(key & 0x7ff) // biased exponent of s
	if thr := float64(e-1023-55) * math.Ln2; thr >= expNormal && e != 0x7ff {
		return thr
	}
	return expUnderflow
}

// filterBlock is how many survivors the filter pass collects before the
// kernel pass adds their terms: the length of the finite-support loops'
// stack buffers. Go zeroes those on every call, and naive's row scatter
// makes one call per footprint pixel, so the block is as small as keeps
// the kernel pass dense (DESIGN "Filter, then evaluate" has the
// measurements). A power of two, so n&(filterBlock−1) needs no bounds
// check.
const filterBlock = 8

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The finite kernels' terms K(d²) inside the support, Kernel.Eval2's
// expressions.
func triangularTerm(d2, invB float64) float64    { return 1 - math.Sqrt(d2)*invB }
func epanechnikovTerm(d2, invB2 float64) float64 { return 1 - d2*invB2 }
func quarticTerm(d2, invB2 float64) float64 {
	u := 1 - d2*invB2
	return u * u
}
func triweightTerm(d2, invB2 float64) float64 {
	u := 1 - d2*invB2
	return u * u * u
}

// chunkEvalFor returns the kernel-specialised evaluator for k. The local
// constants replicate kernel.New's derived values (1/b, b², 1/b²) with the
// same IEEE expressions, so each specialisation is bit-compatible with
// Kernel.Eval2.
//
// The finite-support loops filter, then evaluate (DESIGN "Filter, then
// evaluate"). The filter pass writes each candidate's d² to d2s[n] and
// advances n by the 0/1 result of the support test, so no candidate costs
// a branch; when the buffer is full, and at the end, the kernel pass adds
// the survivors' terms in slot order. Those are the
// terms, order and operations of `if d² < b² { sum += K(d²) }`, so the
// bits are the same, without the branch that mispredicts on about every
// third grid-cutoff candidate.
//
// The Gaussian and exponential loops compute t, the argument of exp, and
// call exp only when !(t < thr) — so a NaN t still reaches exp. thr is
// absorbThreshold's for the running sum, refreshed after an add changes the
// sum's sign or exponent bits: a compare per add, not a log.
func chunkEvalFor(k kernel.Kernel) chunkEval {
	b := k.Bandwidth()
	b2 := b * b
	invB := 1 / b
	invB2 := 1 / (b * b)
	switch k.Type() {
	case kernel.Uniform:
		// The closed support d² ≤ b², and a term that does not depend on
		// d²: the filter keeps only a count.
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			ys = ys[:len(xs)]
			n := 0
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				n += b2i(dx*dx+dy*dy <= b2)
			}
			for range n {
				sum += invB
			}
			return sum, n
		}
	case kernel.Triangular:
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			ys = ys[:len(xs)]
			var d2s [filterBlock]float64
			n, terms := 0, 0
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				d2s[n&(filterBlock-1)] = d2
				if n += b2i(d2 < b2); n == filterBlock {
					for _, d2 := range d2s[:] {
						sum += triangularTerm(d2, invB)
					}
					n, terms = 0, terms+filterBlock
				}
			}
			for _, d2 := range d2s[:n] {
				sum += triangularTerm(d2, invB)
			}
			return sum, terms + n
		}
	case kernel.Epanechnikov:
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			ys = ys[:len(xs)]
			var d2s [filterBlock]float64
			n, terms := 0, 0
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				d2s[n&(filterBlock-1)] = d2
				if n += b2i(d2 < b2); n == filterBlock {
					for _, d2 := range d2s[:] {
						sum += epanechnikovTerm(d2, invB2)
					}
					n, terms = 0, terms+filterBlock
				}
			}
			for _, d2 := range d2s[:n] {
				sum += epanechnikovTerm(d2, invB2)
			}
			return sum, terms + n
		}
	case kernel.Quartic:
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			ys = ys[:len(xs)]
			var d2s [filterBlock]float64
			n, terms := 0, 0
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				d2s[n&(filterBlock-1)] = d2
				if n += b2i(d2 < b2); n == filterBlock {
					for _, d2 := range d2s[:] {
						sum += quarticTerm(d2, invB2)
					}
					n, terms = 0, terms+filterBlock
				}
			}
			for _, d2 := range d2s[:n] {
				sum += quarticTerm(d2, invB2)
			}
			return sum, terms + n
		}
	case kernel.Triweight:
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			ys = ys[:len(xs)]
			var d2s [filterBlock]float64
			n, terms := 0, 0
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				d2s[n&(filterBlock-1)] = d2
				if n += b2i(d2 < b2); n == filterBlock {
					for _, d2 := range d2s[:] {
						sum += triweightTerm(d2, invB2)
					}
					n, terms = 0, terms+filterBlock
				}
			}
			for _, d2 := range d2s[:n] {
				sum += triweightTerm(d2, invB2)
			}
			return sum, terms + n
		}
	case kernel.Gaussian:
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			key := math.Float64bits(sum) >> 52
			thr := absorbThreshold(key)
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				if t := -d2 * invB2; !(t < thr) {
					sum += math.Exp(t)
					if nk := math.Float64bits(sum) >> 52; nk != key {
						key, thr = nk, absorbThreshold(nk)
					}
				}
			}
			return sum, len(xs)
		}
	case kernel.Cosine:
		// The kernel pass writes the survivors' cos arguments over d2s,
		// cosQuarter turns them into math.Cos's values in one call, and
		// the sum takes them in order.
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			ys = ys[:len(xs)]
			var d2s [filterBlock]float64
			n, terms := 0, 0
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				d2s[n&(filterBlock-1)] = d2
				if n += b2i(d2 < b2); n == filterBlock {
					cosQuarter(cosineArgs(d2s[:], invB))
					for _, c := range d2s[:] {
						sum += c
					}
					n, terms = 0, terms+filterBlock
				}
			}
			cosQuarter(cosineArgs(d2s[:n], invB))
			for _, c := range d2s[:n] {
				sum += c
			}
			return sum, terms + n
		}
	case kernel.Exponential:
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			key := math.Float64bits(sum) >> 52
			thr := absorbThreshold(key)
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				if t := -math.Sqrt(d2) * invB; !(t < thr) {
					sum += math.Exp(t)
					if nk := math.Float64bits(sum) >> 52; nk != key {
						key, thr = nk, absorbThreshold(nk)
					}
				}
			}
			return sum, len(xs)
		}
	}
	// Unreachable for kernels built with kernel.New; fall back to Eval2.
	return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
		q := geom.Point{X: qx, Y: qy}
		for i := range xs {
			sum += k.Eval2(geom.Point{X: xs[i], Y: ys[i]}.Dist2(q))
		}
		return sum, len(xs)
	}
}

// buildNaive constructs the exact baseline of §1 over the chunked columnar
// layout, with the kernel specialised per type. How it visits the
// (pixel, point) pairs depends on the kernel's support:
//
//   - Gaussian and exponential reach every pixel, so it is the paper's
//     O(XYn) pixel-major sum: each pixel folds every chunk in order, and the
//     loops skip the exp of terms the pixel's sum absorbs.
//   - A finite-support kernel runs point-major (scatterRow): each row
//     streams the points within b of its y line, in index order, into
//     their footprint on it, O(n + Σ footprint) per row instead of O(X·n).
//
// Both give the pixel-major sum bit for bit: every pixel adds the same
// non-zero terms in the same point order, and skipped terms are ones that
// leave the sum as it was. It is the one evaluator that applies
// Options.Window's x offset.
func buildNaive(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
	c := &columnarComputer{cols: cols, opt: opt, eval: chunkEvalFor(opt.Kernel), x0: opt.Window.X0}
	if opt.Kernel.FiniteSupport() {
		g := opt.Grid
		nx := g.NX
		if !opt.Window.IsZero() {
			nx = opt.Window.NX
		}
		c.cx = make([]float64, nx)
		for ix := range c.cx {
			c.cx[ix] = g.CenterX(c.x0 + ix)
		}
		b := opt.Kernel.Bandwidth()
		c.b2 = b * b
		c.fp = g.Footprint(b)
	}
	return c, 1, nil
}

// columnarComputer is the exact naive evaluator.
type columnarComputer struct {
	cols dataset.Columns
	opt  *Options
	eval chunkEval
	x0   int // window column offset: row[ix] is parent pixel x0+ix
	// Finite support only (cx != nil): the row's pixel-centre x
	// coordinates, the squared support radius and the kernel's footprint.
	cx []float64
	b2 float64
	fp geom.Footprint
}

// computeRow fills one raster row. It must not allocate: nothing called
// per row or per pixel may escape to the heap.
func (c *columnarComputer) computeRow(iy int, row []float64) {
	if c.cx != nil {
		c.scatterRow(iy, row)
		return
	}
	g := c.opt.Grid
	qy := g.CenterY(iy)
	xs, ys := c.cols.X, c.cols.Y
	for ix := range row {
		qx := g.CenterX(c.x0 + ix)
		sum := 0.0
		for _, ch := range c.cols.Chunks {
			sum, _ = c.eval(sum, qx, qy, xs[ch.Lo:ch.Hi], ys[ch.Lo:ch.Hi])
		}
		row[ix] = sum
	}
}

// scatterRow fills row iy point-major for a finite-support kernel. It
// streams the points of the chunks that reach the row's y line in
// ascending index order and adds each one's term, through eval on a
// one-point segment, to the pixels of its footprint on the row
// (geom.Footprint, clipped to the window). Each pixel starts at +0 and
// receives its terms in ascending point order, the gather's order, and
// the terms left out are ones eval skips: a chunk whose box has
// fl(dy²) > b² reaches no pixel, as fl(dx²+dy²) ≥ fl(dy²), and the
// footprint holds every pixel passing d² ≤ b². So it is the pixel-major
// sum bit for bit.
func (c *columnarComputer) scatterRow(iy int, row []float64) {
	qy := c.opt.Grid.CenterY(iy)
	xs, ys := c.cols.X, c.cols.Y
	eval, cx, b2, x0 := c.eval, c.cx, c.b2, c.x0
	row = row[:len(cx)]
	clear(row)
	for _, ch := range c.cols.Chunks {
		if yd := yDist(qy, ch.BBox); yd*yd > b2 {
			continue
		}
		for k, y := range ys[ch.Lo:ch.Hi] {
			dy := y - qy
			if dy*dy > b2 { // Cols' own skip, kept inline: most points take it
				continue
			}
			i := ch.Lo + k
			lo, hi := c.fp.Cols(xs[i], dy)
			lo, hi = max(lo-x0, 0), min(hi-x0, len(cx))
			if lo >= hi {
				continue
			}
			px, py := xs[i:i+1], ys[i:i+1]
			run := row[lo:hi]
			for j, qx := range cx[lo:hi] {
				run[j], _ = eval(run[j], qx, qy, px, py)
			}
		}
	}
}

// yDist returns the vertical distance from the horizontal line y = qy to
// box (0 if the line crosses it).
func yDist(qy float64, b geom.BBox) float64 {
	switch {
	case qy < b.MinY:
		return b.MinY - qy
	case qy > b.MaxY:
		return qy - b.MaxY
	}
	return 0
}
