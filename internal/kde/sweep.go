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
	deg int // polynomial degree in dx²/b²

	// Points counting-sorted into raster-row buckets (input order kept
	// within a bucket); ws nil if unweighted. Bucket j — the points whose y
	// falls in row j's cell, the outermost buckets also taking everything
	// beyond the grid — is [rowOff[j], rowOff[j+1]).
	xs, ys, ws []float64
	rowOff     []int32

	// binomCoef[m][k] = C(2m, k)·(−1)^k, the expansion of (qx − px)^{2m}.
	binomCoef [][]float64
	// pascal[k][i] = C(k, i) for the origin-shift re-expansion.
	pascal [][]float64

	stride int // aggregate slots: Σ_m (2m+1) = (deg+1)²

	fp geom.Footprint // the kernel's footprint: its row halo, each point's columns

	bufs sync.Pool // *sweepBuf, one per in-flight row
}

// sweepBuf is the per-row scratch. Event lists are intrusive per-column
// chains: head slices store index+1 (0 = empty) so a plain clear() resets
// them.
type sweepBuf struct {
	enterHead []int32 // per column: first band point entering there
	exitHead  []int32 // per column: first band point exiting there
	nextEnter []int32 // chain links, per band point
	nextExit  []int32
	bandA     []float64 // A_p per band point
	bandX     []float64 // absolute p.x per band point
	bandW     []float64 // event weight per band point (1 when unweighted)

	agg []float64 // running power sums S[m][k], local origin
	tmp []float64 // origin-shift scratch (max 2·deg+1 wide)
	pow []float64 // qx' powers 0..2·deg
}

func newSweepComputer(cols dataset.Columns, opt *Options, deg int) *sweepComputer {
	c := &sweepComputer{
		opt:    opt,
		deg:    deg,
		stride: (deg + 1) * (deg + 1),
		fp:     opt.Grid.Footprint(opt.Kernel.Bandwidth()),
	}
	c.bucketRows(cols)
	c.binomCoef = make([][]float64, deg+1)
	for m := 0; m <= deg; m++ {
		c.binomCoef[m] = make([]float64, 2*m+1)
		for k := 0; k <= 2*m; k++ {
			sign := 1.0
			if k%2 == 1 {
				sign = -1
			}
			c.binomCoef[m][k] = sign * binom(2*m, k)
		}
	}
	c.pascal = make([][]float64, 2*deg+1)
	for k := 0; k <= 2*deg; k++ {
		c.pascal[k] = make([]float64, k+1)
		for i := 0; i <= k; i++ {
			c.pascal[k][i] = binom(k, i)
		}
	}
	nx := opt.Grid.NX
	c.bufs.New = func() any {
		return &sweepBuf{
			enterHead: make([]int32, nx+1),
			exitHead:  make([]int32, nx+1),
			agg:       make([]float64, c.stride),
			tmp:       make([]float64, 2*deg+1),
			pow:       make([]float64, 2*deg+1),
		}
	}
	return c
}

// bucketRows fills xs/ys/ws/rowOff with a stable counting sort of cols by
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
	if cols.W != nil {
		c.ws = make([]float64, n)
	}
	next := append([]int32(nil), c.rowOff[:g.NY]...)
	for i, y := range cols.Y {
		j := bucket(y)
		k := next[j]
		next[j]++
		c.xs[k], c.ys[k] = cols.X[i], y
		if c.ws != nil {
			c.ws[k] = cols.W[i]
		}
	}
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// coeffs fills cm[m] = c_m(A) for the kernel, the coefficients of K as a
// polynomial in u = dx²/b² given A = 1 − dy²/b²:
//
//	uniform:      K = 1/b                     (support dx² ≤ b²A)
//	epanechnikov: K = A − u
//	quartic:      K = (A − u)² = A² − 2Au + u²
//	triweight:    K = (A − u)³ = A³ − 3A²u + 3Au² − u³
func (c *sweepComputer) coeffs(a float64, cm []float64) {
	switch c.deg {
	case 0:
		cm[0] = 1 / c.opt.Kernel.Bandwidth()
	case 1:
		cm[0], cm[1] = a, -1
	case 2:
		cm[0], cm[1], cm[2] = a*a, -2*a, 1
	case 3:
		cm[0], cm[1], cm[2], cm[3] = a*a*a, -3*a*a, 3*a, -1
	}
}

// applyPoint adds (sign=+1) or removes (sign=−1) band point i's
// contribution to the power sums, expressed relative to origin.
func (c *sweepComputer) applyPoint(buf *sweepBuf, i int32, origin, sign float64) {
	var cm [4]float64
	c.coeffs(buf.bandA[i], cm[:])
	px := buf.bandX[i] - origin
	sign *= buf.bandW[i]
	slot := 0
	for m := 0; m <= c.deg; m++ {
		v := sign * cm[m]
		xk := 1.0
		for k := 0; k <= 2*m; k++ {
			buf.agg[slot] += v * xk
			xk *= px
			slot++
		}
	}
}

// shiftOrigin re-expands the power sums from origin o to o+d:
// Σ c·(px−o−d)^k = Σ_i C(k,i)·(−d)^{k−i}·Σ c·(px−o)^i.
func (c *sweepComputer) shiftOrigin(buf *sweepBuf, d float64) {
	slot := 0
	for m := 0; m <= c.deg; m++ {
		width := 2*m + 1
		s := buf.agg[slot : slot+width]
		for k := width - 1; k >= 1; k-- {
			acc := 0.0
			dPow := 1.0
			// i from k down to 0: (−d)^{k−i} grows as i decreases.
			for i := k; i >= 0; i-- {
				acc += c.pascal[k][i] * dPow * s[i]
				dPow *= -d
			}
			buf.tmp[k] = acc
		}
		for k := 1; k < width; k++ {
			s[k] = buf.tmp[k]
		}
		slot += width
	}
}

func (c *sweepComputer) computeRow(iy int, row []float64) {
	g := c.opt.Grid
	b := c.opt.Kernel.Bandwidth()
	b2 := b * b
	qy := g.CenterY(iy)
	nx := g.NX

	buf := c.bufs.Get().(*sweepBuf)
	defer c.bufs.Put(buf)
	clear(buf.enterHead)
	clear(buf.exitHead)

	// Candidates: the buckets within the footprint's row halo. Each one's
	// exact footprint on the row decides its enter and exit columns: empty
	// when fl(dy²) > b², the band test naive's scatter uses.
	halo := c.fp.RowHalo()
	lo := c.rowOff[max(iy-halo, 0)]
	hi := c.rowOff[min(iy+halo, g.NY-1)+1]

	// Build per-column enter/exit event chains for the band.
	buf.bandA = buf.bandA[:0]
	buf.bandX = buf.bandX[:0]
	buf.bandW = buf.bandW[:0]
	buf.nextEnter = buf.nextEnter[:0]
	buf.nextExit = buf.nextExit[:0]
	for i := lo; i < hi; i++ {
		dy := c.ys[i] - qy
		px := c.xs[i]
		colLo, colHi := c.fp.Cols(px, dy)
		if colLo >= colHi {
			continue
		}
		bi := int32(len(buf.bandA))
		buf.bandA = append(buf.bandA, 1-dy*dy/b2)
		buf.bandX = append(buf.bandX, px)
		if c.ws != nil {
			buf.bandW = append(buf.bandW, c.ws[i])
		} else {
			buf.bandW = append(buf.bandW, 1)
		}
		buf.nextEnter = append(buf.nextEnter, buf.enterHead[colLo])
		buf.enterHead[colLo] = bi + 1
		buf.nextExit = append(buf.nextExit, buf.exitHead[colHi])
		buf.exitHead[colHi] = bi + 1
	}
	if len(buf.bandA) == 0 {
		clear(row)
		return
	}

	invB2 := 1 / b2
	origin := 0.0
	active := 0
	for ix := 0; ix < nx; ix++ {
		qx := g.CenterX(ix)
		// Exits first, against the origin the points were last summed at:
		// an origin shift re-expands the sums with powers of the shift, so
		// what can leave should leave before one — on a raster coarser than
		// the bandwidth that is every point, and no shift is needed at all.
		for e := buf.exitHead[ix]; e != 0; e = buf.nextExit[e-1] {
			c.applyPoint(buf, e-1, origin, -1)
			active--
		}
		switch {
		case active == 0:
			// Free re-anchor: nothing to move, and clearing drops whatever
			// residue the departed points' cancellation left.
			clear(buf.agg)
			origin = qx
		case math.Abs(qx-origin) > b:
			c.shiftOrigin(buf, qx-origin)
			origin = qx
		}
		for e := buf.enterHead[ix]; e != 0; e = buf.nextEnter[e-1] {
			c.applyPoint(buf, e-1, origin, +1)
			active++
		}
		if active == 0 {
			row[ix] = 0 // exact zero outside every support
			continue
		}
		qxl := qx - origin
		buf.pow[0] = 1
		for p := 1; p <= 2*c.deg; p++ {
			buf.pow[p] = buf.pow[p-1] * qxl
		}
		sum := 0.0
		slot := 0
		scaleM := 1.0 // (1/b²)^m
		for m := 0; m <= c.deg; m++ {
			inner := 0.0
			for k := 0; k <= 2*m; k++ {
				inner += c.binomCoef[m][k] * buf.pow[2*m-k] * buf.agg[slot]
				slot++
			}
			sum += scaleM * inner
			scaleM *= invB2
		}
		if sum < 0 {
			sum = 0 // cancellation residue guard
		}
		row[ix] = sum
	}
}
