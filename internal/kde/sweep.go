package kde

import (
	"fmt"
	"math"
	"sync"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// buildSweep constructs the exact evaluator for kernels polynomial in
// squared distance — uniform, Epanechnikov, quartic, triweight — running in
// O(n + Y·(X+n_b)) time, where n_b is the number of points within bandwidth
// of a row — the paper's O(Y(X+n)) bound. This is the computational-sharing
// family of §2.2 (SLAM [32]): instead of evaluating K per (pixel, point)
// pair, each row maintains running polynomial-coefficient aggregates over
// the active point set, updated by O(1)-amortised enter/exit events per
// point, so every pixel in the row is evaluated in O(1) from the aggregates.
//
// How it works. Fix a row with pixel ordinate qy. A point p contributes
// K = Σ_m c_m(A_p)·(dx²/b²)^m with A_p = 1 − dy²/b², dy = p.y − qy, for
// the pixels of its footprint on the row (geom.Footprint: exactly those
// whose fl(dx² + dy²) ≤ fl(b²), dx = qx − p.x). Expanding (dx²)^m by the
// binomial theorem makes the row sum a polynomial in qx whose coefficients
// are power sums Σ c_m(A_p)·p.x^k over the active points. Those sums change
// only where a point's footprint starts (enter) or ends (exit), so one
// left-to-right sweep with per-column event lists evaluates the whole row.
//
// Numerical conditioning: the power sums are kept relative to a local
// origin that slides with the sweep. Every active point is within one
// bandwidth of the current pixel, so |p.x − origin| = O(b) and the degree-6
// terms never suffer large-magnitude cancellation; on an origin shift the
// aggregates are re-expanded with binomial coefficients (an O(deg²)
// operation amortised over ≥ b/cellW pixels).
//
// Each degree's enter/exit update and pixel sum is written out as
// straight-line code (sweepPoly) that performs, operation for operation,
// the arithmetic of the generic degree loops in the test oracle, so the
// rasters have the generic form's bits without its table lookups.
//
// Triangular, cosine, Gaussian and exponential kernels are not polynomial
// in dx² and fall outside the row's kernel class — exactly the limitation
// §2.4 of the paper names as an open problem for the sharing family.
func buildSweep(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
	deg, err := sweepDegree(opt.Kernel.Type())
	if err != nil {
		return nil, 0, err
	}
	return newSweepComputer(cols, opt, deg), 1, nil
}

// SweepSupported reports whether the sweep-line method supports the kernel
// type (the table's polynomialD2 kernel class).
func SweepSupported(t kernel.Type) bool {
	_, err := sweepDegree(t)
	return err == nil
}

func sweepDegree(t kernel.Type) (int, error) {
	switch t {
	case kernel.Uniform:
		return 0, nil
	case kernel.Epanechnikov:
		return 1, nil
	case kernel.Quartic:
		return 2, nil
	case kernel.Triweight:
		return 3, nil
	}
	return 0, fmt.Errorf("kde: SweepLine requires a kernel polynomial in squared distance (uniform/epanechnikov/quartic/triweight), got %v", t)
}

type sweepComputer struct {
	opt *Options

	// Points counting-sorted into raster-row buckets (input order kept
	// within a bucket). Bucket j — the points whose y falls in row j's
	// cell, the outermost buckets also taking everything beyond the grid —
	// is [rowOff[j], rowOff[j+1]).
	xs, ys []float64
	rowOff []int32

	poly sweepPoly      // the kernel's written-out update and pixel sum
	fp   geom.Footprint // the kernel's footprint: its row halo, each point's columns
	halo int            // fp.RowHalo()
	most int32          // the most candidates any row has: a buffer's band capacity
}

// sweepBufs holds row scratch between rows and between calls, resized on
// Get. It lives outside the computer because the runtime keeps a pool
// alive until the second GC after its last Put, and a pool inside the
// computer would keep the computer, with its point copy, alive as long.
var sweepBufs sync.Pool // *sweepBuf

// sweepEvent is one band point: what its enter and exit updates read, and
// its links in the two column chains, in one record, so an event touches
// one cache line.
type sweepEvent struct {
	a, x                float64 // A_p, absolute p.x
	nextEnter, nextExit int32   // chain links
}

// sweepBuf is the per-row scratch. Event lists are intrusive per-column
// chains: head slices store index+1 (0 = empty) so a plain clear() resets
// them.
type sweepBuf struct {
	enterHead []int32      // per column: first band point entering there
	exitHead  []int32      // per column: first band point exiting there
	band      []sweepEvent // the row's band, in bucket order

	// Running power sums relative to the local origin: slot m² + k holds
	// S[m][k] = Σ c_m(A)·(p.x − origin)^k, k ≤ 2m.
	agg []float64
}

func newSweepComputer(cols dataset.Columns, opt *Options, deg int) *sweepComputer {
	c := &sweepComputer{
		opt:  opt,
		poly: newSweepPoly(deg, opt.Kernel.Bandwidth()),
		fp:   opt.Grid.Footprint(opt.Kernel.Bandwidth()),
	}
	c.halo = c.fp.RowHalo()
	c.bucketRows(cols)
	for iy := 0; iy < opt.Grid.NY; iy++ {
		lo, hi := c.candidates(iy)
		c.most = max(c.most, hi-lo)
	}
	return c
}

// getBuf takes a row buffer from sweepBufs, sized for this computer: its
// band holds the most candidates any row has, so appending to it never
// reallocates.
func (c *sweepComputer) getBuf() *sweepBuf {
	buf, _ := sweepBufs.Get().(*sweepBuf)
	if buf == nil {
		buf = &sweepBuf{}
	}
	nx, deg := c.opt.Grid.NX, c.poly.deg
	buf.enterHead = resize(buf.enterHead, nx+1)
	buf.exitHead = resize(buf.exitHead, nx+1)
	buf.agg = resize(buf.agg, (deg+1)*(deg+1))
	if cap(buf.band) < int(c.most) {
		buf.band = make([]sweepEvent, 0, c.most)
	}
	return buf
}

// resize returns s with length n, reallocated only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// candidates returns the bucket range [lo, hi) row iy takes its band
// from: the buckets within the footprint's row halo.
func (c *sweepComputer) candidates(iy int) (lo, hi int32) {
	return c.rowOff[max(iy-c.halo, 0)], c.rowOff[min(iy+c.halo, c.opt.Grid.NY-1)+1]
}

// bucketRows fills xs/ys/rowOff with a stable counting sort of cols by
// raster row: O(n + Y), against the O(n log n) of ordering by y, and rows
// need nothing finer — each takes its band from the buckets within the
// footprint's row halo and tests the candidates exactly.
func (c *sweepComputer) bucketRows(cols dataset.Columns) {
	g := c.opt.Grid
	minY, cellH, last := g.Box.MinY, g.CellH(), g.NY-1
	bucket := func(y float64) int { return geom.ClampIndex((y-minY)/cellH, last) }
	n := cols.N()
	c.rowOff = make([]int32, g.NY+1)
	for _, y := range cols.Y {
		c.rowOff[bucket(y)+1]++
	}
	for j := 0; j < g.NY; j++ {
		c.rowOff[j+1] += c.rowOff[j]
	}
	c.xs = make([]float64, n)
	c.ys = make([]float64, n)
	next := append([]int32(nil), c.rowOff[:g.NY]...)
	for i, y := range cols.Y {
		j := bucket(y)
		k := next[j]
		next[j]++
		c.xs[k], c.ys[k] = cols.X[i], y
	}
}

// sweepPoly is the kernel as a polynomial in u = dx²/b² given
// A = 1 − dy²/b², with coefficients c_m(A):
//
//	uniform:      K = 1/b                     (support dx² ≤ b²A)
//	epanechnikov: K = A − u
//	quartic:      K = (A − u)² = A² − 2Au + u²
//	triweight:    K = (A − u)³ = A³ − 3A²u + 3Au² − u³
//
// update is written out per degree, and eval term by term, adding the
// terms of degree m ≤ deg. Both perform, operation for operation and in
// the same order, the IEEE arithmetic of the generic loops over
// coefficient, binomial C(2m, k)·(−1)^k and power tables in sweep_test.go,
// the oracle FuzzSweepKernels holds them to bit for bit: the products by
// 1 and −1 those loops form are exact and dropped here, every sum starts
// as 0.0 + its first term (which turns a −0 into +0), powers and (1/b²)^m
// are built by repeated multiplication, and a negative pixel sum is
// clamped to 0. Every product that feeds an add is converted explicitly,
// float64(x*y), which forbids the compiler to fuse the pair into one
// multiply-add, as it otherwise does on arm64: every product is rounded
// on its own, as amd64 rounds it.
type sweepPoly struct {
	deg   int        // degree in u
	invB  float64    // 1/b, uniform's c_0
	scale [4]float64 // (1/b²)^m
}

func newSweepPoly(deg int, b float64) sweepPoly {
	p := sweepPoly{deg: deg, invB: 1 / b}
	invB2 := 1 / (b * b)
	p.scale[0] = 1
	for m := 1; m < len(p.scale); m++ {
		p.scale[m] = p.scale[m-1] * invB2
	}
	return p
}

// update adds (s = +1) or removes (s = −1) a band point's contribution to
// the power sums agg, relative to origin: with px = x − origin and
// v_m = s·c_m(a), S[m][k] += v_m·px^k.
func (p *sweepPoly) update(agg []float64, a, x, origin, s float64) {
	px := x - origin
	switch p.deg {
	case 0:
		agg[0] += float64(s * p.invB)
	case 1:
		agg = agg[:4]
		v1 := -s
		agg[0] += float64(s * a)
		agg[1] += v1
		agg[2] += float64(v1 * px)
		agg[3] += float64(v1 * (px * px))
	case 2:
		agg = agg[:9]
		p2 := px * px
		p3 := p2 * px
		v1 := float64(s * (-2 * a))
		agg[0] += float64(s * (a * a))
		agg[1] += v1
		agg[2] += float64(v1 * px)
		agg[3] += float64(v1 * p2)
		agg[4] += s
		agg[5] += float64(s * px)
		agg[6] += float64(s * p2)
		agg[7] += float64(s * p3)
		agg[8] += float64(s * (p3 * px))
	case 3:
		agg = agg[:16]
		p2 := px * px
		p3 := p2 * px
		p4 := p3 * px
		p5 := p4 * px
		v1 := float64(s * (-3 * a * a))
		v2 := float64(s * (3 * a))
		v3 := -s
		agg[0] += float64(s * (a * a * a))
		agg[1] += v1
		agg[2] += float64(v1 * px)
		agg[3] += float64(v1 * p2)
		agg[4] += v2
		agg[5] += float64(v2 * px)
		agg[6] += float64(v2 * p2)
		agg[7] += float64(v2 * p3)
		agg[8] += float64(v2 * p4)
		agg[9] += v3
		agg[10] += float64(v3 * px)
		agg[11] += float64(v3 * p2)
		agg[12] += float64(v3 * p3)
		agg[13] += float64(v3 * p4)
		agg[14] += float64(v3 * p5)
		agg[15] += float64(v3 * (p5 * px))
	}
}

// eval returns the kernel sum at pixel abscissa qx from power sums held
// relative to origin, clamped at 0: with q = qx − origin it is
// Σ_m (1/b²)^m · Σ_k C(2m, k)·(−1)^k·q^(2m−k)·S[m][k], the binomial
// expansion of Σ_p c_m(A)·(q − px)^(2m).
func (p *sweepPoly) eval(agg []float64, qx, origin float64) float64 {
	q := qx - origin
	q2 := q * q
	q3 := q2 * q
	q4 := q3 * q
	q5 := q4 * q
	sum := 0.0 + (0.0 + agg[0])
	if p.deg >= 1 {
		i1 := 0.0 + float64(q2*agg[1])
		i1 += float64(-2 * q * agg[2])
		i1 += agg[3]
		sum += float64(p.scale[1] * i1)
	}
	if p.deg >= 2 {
		i2 := 0.0 + float64(q4*agg[4])
		i2 += float64(-4 * q3 * agg[5])
		i2 += float64(6 * q2 * agg[6])
		i2 += float64(-4 * q * agg[7])
		i2 += agg[8]
		sum += float64(p.scale[2] * i2)
	}
	if p.deg == 3 {
		i3 := 0.0 + float64(q5*q*agg[9])
		i3 += float64(-6 * q5 * agg[10])
		i3 += float64(15 * q4 * agg[11])
		i3 += float64(-20 * q3 * agg[12])
		i3 += float64(15 * q2 * agg[13])
		i3 += float64(-6 * q * agg[14])
		i3 += agg[15]
		sum += float64(p.scale[3] * i3)
	}
	if sum < 0 {
		sum = 0 // cancellation residue guard
	}
	return sum
}

// pascal[k][i] = C(k, i), the weights of the origin shift's re-expansion
// up to triweight's degree 6.
var pascal = [7][7]float64{
	{1},
	{1, 1},
	{1, 2, 1},
	{1, 3, 3, 1},
	{1, 4, 6, 4, 1},
	{1, 5, 10, 10, 5, 1},
	{1, 6, 15, 20, 15, 6, 1},
}

// shiftOrigin re-expands the power sums from origin o to o+d:
// Σ c·(px−o−d)^k = Σ_i C(k,i)·(−d)^{k−i}·Σ c·(px−o)^i.
func (c *sweepComputer) shiftOrigin(agg []float64, d float64) {
	var tmp [7]float64
	slot := 0
	for m := 0; m <= c.poly.deg; m++ {
		width := 2*m + 1
		s := agg[slot : slot+width]
		for k := width - 1; k >= 1; k-- {
			acc := 0.0
			dPow := 1.0
			// i from k down to 0: (−d)^{k−i} grows as i decreases.
			for i := k; i >= 0; i-- {
				acc += float64(pascal[k][i] * dPow * s[i])
				dPow *= -d
			}
			tmp[k] = acc
		}
		copy(s[1:], tmp[1:width])
		slot += width
	}
}

func (c *sweepComputer) computeRow(iy int, row []float64) {
	g := c.opt.Grid
	b := c.opt.Kernel.Bandwidth()
	b2 := b * b
	qy := g.CenterY(iy)
	nx := g.NX

	buf := c.getBuf()
	defer sweepBufs.Put(buf)
	clear(buf.enterHead)
	clear(buf.exitHead)

	// Each candidate's exact footprint on the row decides its enter and
	// exit columns: empty when fl(dy²) > b², the band test naive's scatter
	// uses.
	lo, hi := c.candidates(iy)

	// Build per-column enter/exit event chains for the band.
	buf.band = buf.band[:0]
	for i := lo; i < hi; i++ {
		dy := c.ys[i] - qy
		if dy*dy > b2 { // Cols' own skip, kept inline: many candidates take it
			continue
		}
		px := c.xs[i]
		colLo, colHi := c.fp.Cols(px, dy)
		if colLo >= colHi {
			continue
		}
		buf.band = append(buf.band, sweepEvent{a: 1 - dy*dy/b2, x: px, nextEnter: buf.enterHead[colLo], nextExit: buf.exitHead[colHi]})
		bi := int32(len(buf.band))
		buf.enterHead[colLo] = bi
		buf.exitHead[colHi] = bi
	}
	if len(buf.band) == 0 {
		clear(row)
		return
	}

	origin := 0.0
	active := 0
	for ix := 0; ix < nx; ix++ {
		qx := g.CenterX(ix)
		// Exits first, against the origin the points were last summed at:
		// an origin shift re-expands the sums with powers of the shift, so
		// what can leave should leave before one — on a raster coarser than
		// the bandwidth that is every point, and no shift is needed at all.
		for e := buf.exitHead[ix]; e != 0; e = buf.band[e-1].nextExit {
			p := &buf.band[e-1]
			c.poly.update(buf.agg, p.a, p.x, origin, -1)
			active--
		}
		switch {
		case active == 0:
			// Free re-anchor: nothing to move, and clearing drops whatever
			// residue the departed points' cancellation left.
			clear(buf.agg)
			origin = qx
		case math.Abs(qx-origin) > b:
			c.shiftOrigin(buf.agg, qx-origin)
			origin = qx
		}
		for e := buf.enterHead[ix]; e != 0; e = buf.band[e-1].nextEnter {
			p := &buf.band[e-1]
			c.poly.update(buf.agg, p.a, p.x, origin, +1)
			active++
		}
		if active == 0 {
			row[ix] = 0 // exact zero outside every support
			continue
		}
		row[ix] = c.poly.eval(buf.agg, qx, origin)
	}
}
