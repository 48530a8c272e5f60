package kde

import (
	"fmt"
	"sort"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/kernel"
	"geostat/internal/raster"
)

// MultiBandwidth computes exact KDV surfaces for SEVERAL bandwidths of the
// same polynomial kernel in one pass — the bandwidth-exploration sharing of
// SAFE [26] in the paper's §2.2. Domain experts tune b by eye, so a single
// analysis session computes many KDVs over the same data; computing them
// independently repeats all distance work m times.
//
// The sharing identity: for kernels polynomial in d²/b², the density is a
// linear combination of the truncated distance power sums
//
//	S_k(q, b) = Σ_{p: dist(q,p) ≤ b} dist(q,p)^{2k}
//
// e.g. quartic: F_b(q) = S_0 − 2·S_1/b² + S_2/b⁴. One scan of the
// neighbours within b_max bins each point's d^{2k} moments by the first
// bandwidth covering it; prefix sums over the (ascending) bandwidths then
// give every S_k(q, b_i), so each extra bandwidth costs O(1) per pixel
// instead of O(points in support).
//
// Supported kernels: uniform, Epanechnikov, quartic, triweight (the same
// family as SweepLine). Bandwidths must be strictly increasing.
func MultiBandwidth(cols dataset.Columns, grid geom.PixelGrid, typ kernel.Type, bandwidths []float64, workers int) ([]*raster.Grid, error) {
	deg, err := sweepDegree(typ)
	if err != nil {
		return nil, fmt.Errorf("kde: MultiBandwidth: %w", err)
	}
	if len(bandwidths) == 0 {
		return nil, fmt.Errorf("kde: MultiBandwidth needs at least one bandwidth")
	}
	prev := 0.0
	for i, b := range bandwidths {
		if !(b > prev) {
			return nil, fmt.Errorf("kde: bandwidths must be positive and strictly increasing (index %d)", i)
		}
		prev = b
	}
	if grid.NX <= 0 || grid.NY <= 0 {
		return nil, fmt.Errorf("kde: grid not initialised")
	}
	nb := len(bandwidths)
	bMax := bandwidths[nb-1]
	idx := gridindex.NewColumns(cols.X, cols.Y, bMax)

	out := make([]*raster.Grid, nb)
	for i := range out {
		out[i] = raster.NewGrid(grid)
	}
	// b² powers for the evaluation step.
	invB2 := make([]float64, nb)
	for i, b := range bandwidths {
		invB2[i] = 1 / (b * b)
	}

	mc := &multibandComputer{
		idx: idx, grid: grid, typ: typ, deg: deg,
		bandwidths: bandwidths, invB2: invB2, bMax: bMax, out: out,
	}
	opt := Options{Kernel: kernel.MustNew(typ, bMax), Grid: grid, Workers: workers}
	// Reuse the row driver; it writes into a throwaway grid while the
	// computer writes all nb real outputs itself.
	if _, err := run(mc, &opt, cols.N(), 1); err != nil {
		return nil, err
	}
	return out, nil
}

type multibandComputer struct {
	idx        *gridindex.Index
	grid       geom.PixelGrid
	typ        kernel.Type
	deg        int
	bandwidths []float64
	invB2      []float64
	bMax       float64
	out        []*raster.Grid
}

func (c *multibandComputer) computeRow(iy int, _ []float64) {
	nb := len(c.bandwidths)
	nMoments := c.deg + 1
	// moments[bin*nMoments + k] accumulates d^{2k} for the bin whose
	// bandwidth is the first one >= d.
	moments := make([]float64, nb*nMoments)
	qy := c.grid.CenterY(iy)
	rowBase := iy * c.grid.NX
	for ix := 0; ix < c.grid.NX; ix++ {
		q := geom.Point{X: c.grid.CenterX(ix), Y: qy}
		clear(moments)
		c.idx.ForEachInRange(q, c.bMax, func(_ int, d2 float64) {
			// First bandwidth with b² >= d² (b >= d, inclusive per Table 2).
			bin := sort.Search(nb, func(i int) bool {
				return c.bandwidths[i]*c.bandwidths[i] >= d2
			})
			if bin == nb {
				return // guards FP edge: d microscopically above bMax
			}
			base := bin * nMoments
			pow := 1.0
			for k := 0; k < nMoments; k++ {
				moments[base+k] += pow
				pow *= d2
			}
		})
		// Prefix-sum the moments across bandwidths and evaluate.
		var s [4]float64
		for bi := 0; bi < nb; bi++ {
			base := bi * nMoments
			for k := 0; k < nMoments; k++ {
				s[k] += moments[base+k]
			}
			c.out[bi].Values[rowBase+ix] = c.evalFromMoments(s, bi)
		}
	}
}

// evalFromMoments computes F_b from the truncated power sums S_0..S_deg.
func (c *multibandComputer) evalFromMoments(s [4]float64, bi int) float64 {
	u := c.invB2[bi]
	switch c.typ {
	case kernel.Uniform:
		return s[0] / c.bandwidths[bi]
	case kernel.Epanechnikov:
		return s[0] - s[1]*u
	case kernel.Quartic:
		return s[0] - 2*s[1]*u + s[2]*u*u
	case kernel.Triweight:
		u2 := u * u
		return s[0] - 3*s[1]*u + 3*s[2]*u2 - s[3]*u2*u
	}
	return 0
}
