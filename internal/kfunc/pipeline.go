package kfunc

import (
	"context"
	"math"

	"geostat/internal/parallel"
)

// This file is the one K-function curve pipeline. Every curve of the
// package — Curve, the observed curve of a plot and each of its envelope
// simulations — runs the same four stages over coordinate columns:
//
//	validate → cell-ordered build → half-pair sweep → squared binning
//
// The thresholds are validated and squared once (squaredBinner), the
// points are counting-sorted into cells at least s_max on a side
// (cells.build), each close pair is visited once (cells.sweep) and its
// squared distance is binned without a square root (binner.bin). The
// histogram is cumulated and doubled at the end: counts are integers, so
// the ordered-pair totals are exactly what a two-sided scan produces.

// binner maps a value to the first of its ascending edges that is not
// below it: bin(v) = min{k : v <= edges[k]}. It replaces a binary search
// per value by one table lookup plus a short forward walk: [0, max] is cut
// into uniform buckets and first[b] is a lower bound of the bin of every
// value in bucket b, exact whatever the rounding because the bucket index
// is the same monotone float expression for edges and values alike.
type binner struct {
	edges []float64
	max   float64 // edges[len(edges)-1]
	scale float64 // buckets per unit of value; 0 for a single bucket
	first []int32 // never empty
}

// newBinner builds the binner of ascending (not necessarily strictly)
// non-negative edges; there must be at least one.
func newBinner(edges []float64) *binner {
	d := len(edges)
	b := &binner{edges: edges, max: edges[d-1], first: []int32{0}}
	// Uniform thresholds s·k/D have squares at least max/D² apart, so 4·D²
	// buckets put at most one edge in a bucket (a walk of ≤ 1 step); the
	// cap keeps the table inside L1 and leaves the rest to the walk.
	scale := float64(min(4*d*d, 4096)) / b.max
	if !(scale > 0) || math.IsInf(scale, 0) {
		return b // max is 0 or +Inf: one bucket, the walk does it all
	}
	b.scale = scale
	b.first = make([]int32, int(b.max*scale)+1)
	k := 0
	for i := range b.first {
		for int(edges[k]*scale) < i {
			k++
		}
		b.first[i] = int32(k)
	}
	return b
}

// squaredBinner is the package's one distance predicate: a pair at squared
// distance d² is within threshold s iff d² <= s·s — the test Naive, the
// index range counts and every curve share. Its bins are over squared
// distances, so binning needs no square root.
func squaredBinner(thresholds []float64) *binner {
	sq := make([]float64, len(thresholds))
	for i, s := range thresholds {
		sq[i] = s * s
	}
	return newBinner(sq)
}

// bin returns the first k with v <= edges[k]. v must satisfy 0 <= v <= max
// (callers filter on max first; NaN fails that filter).
func (b *binner) bin(v float64) int {
	i := int(v * b.scale)
	if uint(i) >= uint(len(b.first)) {
		i = 0 // only +Inf·0 gets here; bucket 0 bounds every bin from below
	}
	k := int(b.first[i])
	for v > b.edges[k] {
		k++
	}
	return k
}

// count bins the squared distance from (x, y) to every point of the
// columns that lies within max.
func (b *binner) count(xs, ys []float64, x, y float64, hist []int64) {
	ys = ys[:len(xs)]
	for j, xj := range xs {
		dx := xj - x
		dy := ys[j] - y
		if d2 := dx*dx + dy*dy; d2 <= b.max {
			hist[b.bin(d2)]++
		}
	}
}

// cells is a cell-ordered copy of a point set: a counting sort of the
// points into a row-major uniform grid whose cells are at least the query
// radius on a side, so that every pair within the radius lies in the same
// or in adjacent cells. All storage is reused by the next build, which is
// what lets one worker run simulation after simulation without allocating.
type cells struct {
	nx, ny int
	xs, ys []float64 // coordinates in cell order
	off    []int32   // cell c holds slots [off[c], off[c+1])
	cellOf []int32   // build scratch: the cell of each input point
}

// cellSlack widens the cells past the radius by more than the rounding
// error a cell coordinate can carry (a few ulps of at most 2²² cells), so
// that two points within the radius never land two cells apart.
const cellSlack = 1 + 1e-6

// gridDim returns how many cells of the given side fit in extent, at
// least one; nonsense ratios (0/0, Inf/Inf) fall to one cell.
func gridDim(extent, side float64) int {
	const maxDim = 1 << 22
	if d := extent / side; d >= 1 {
		return int(min(d, maxDim))
	}
	return 1
}

// build sorts the points (xs[i], ys[i]) into cells at least radius wide.
// The number of cells is capped at twice the number of points: finer
// cells would cost more to clear than they save in candidates.
func (c *cells) build(xs, ys []float64, radius float64) {
	n := len(xs)
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i, x := range xs {
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, ys[i]), max(maxY, ys[i])
	}
	w := math.Max(maxX-minX, 1e-12)
	h := math.Max(maxY-minY, 1e-12)
	side := radius * cellSlack
	nx, ny := gridDim(w, side), gridDim(h, side)
	for nx*ny > 2*n {
		if nx >= ny {
			nx = (nx + 1) / 2
		} else {
			ny = (ny + 1) / 2
		}
	}
	c.nx, c.ny = nx, ny
	perX, perY := float64(nx)/w, float64(ny)/h

	// Counting sort. Cell c's count goes to off[c+2]; after the prefix sum
	// off[c+1] is its first slot, and the scatter advances it to its end —
	// which is cell c+1's start, leaving off as documented.
	ncells := nx * ny
	c.off = resize(c.off, ncells+2)
	clear(c.off)
	c.cellOf = resize(c.cellOf, n)
	for i, x := range xs {
		cx := min(max(int((x-minX)*perX), 0), nx-1)
		cy := min(max(int((ys[i]-minY)*perY), 0), ny-1)
		cell := int32(cy*nx + cx)
		c.cellOf[i] = cell
		c.off[cell+2]++
	}
	for i := 2; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	c.xs, c.ys = resize(c.xs, n), resize(c.ys, n)
	for i, cell := range c.cellOf {
		slot := c.off[cell+1]
		c.off[cell+1] = slot + 1
		c.xs[slot], c.ys[slot] = xs[i], ys[i]
	}
}

// cell returns the cell holding the given slot (a hand-written binary
// search: sweep is a hot path and its callees stay closure-free).
func (c *cells) cell(slot int) int {
	lo, hi := 0, c.nx*c.ny-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(c.off[mid+1]) > slot {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sweep bins, for every slot i in [lo, hi), the pairs (i, j) that follow i
// in the half-pair order: the rest of i's own cell and the four forward
// neighbour cells (east, south-west, south, south-east). Each adjacent
// pair of cells is forward for exactly one of its two cells, so summed
// over all slots every unordered pair is binned exactly once. In the
// row-major layout the forward cells are two contiguous slot ranges: own
// cell through east, and the up-to-three cells of the next row.
func (c *cells) sweep(lo, hi int, bins *binner, hist []int64) {
	nx, ncells := c.nx, c.nx*c.ny
	cell := c.cell(lo)
	for i := lo; i < hi; {
		for int(c.off[cell+1]) <= i {
			cell++
		}
		cx := cell % nx
		west, east := min(cx, 1), min(nx-1-cx, 1)
		rowEnd := int(c.off[cell+1+east])
		var nextLo, nextHi int
		if south := cell + nx; south < ncells {
			nextLo, nextHi = int(c.off[south-west]), int(c.off[south+1+east])
		}
		for end := min(hi, int(c.off[cell+1])); i < end; i++ {
			x, y := c.xs[i], c.ys[i]
			bins.count(c.xs[i+1:rowEnd], c.ys[i+1:rowEnd], x, y, hist)
			bins.count(c.xs[nextLo:nextHi], c.ys[nextLo:nextHi], x, y, hist)
		}
	}
}

// sweepBlock is the number of slots one parallel work item sweeps: the
// grain of load balancing and of cancellation checks.
const sweepBlock = 128

// curve writes K(s) at every edge of bins (ordered pairs, i ≠ j) into
// counts, which must have one entry per edge. The sweep fans out over
// blocks of slots, so it scales even when every point shares one cell;
// the per-worker histograms are integer, so their merge order is
// immaterial. On error (ctx fired) counts is unspecified.
func (c *cells) curve(ctx context.Context, xs, ys []float64, bins *binner, workers int, counts []int) error {
	clear(counts)
	n := len(xs)
	if n < 2 {
		return nil
	}
	// The radius is recovered from the squared edge; cellSlack dwarfs the
	// rounding of the root.
	c.build(xs, ys, math.Sqrt(bins.max))
	blocks := (n + sweepBlock - 1) / sweepBlock
	partials, err := parallel.ForScratchCtx(ctx, blocks, workers,
		func() []int64 { return make([]int64, len(counts)) },
		func(hist []int64, b int) {
			c.sweep(b*sweepBlock, min(n, (b+1)*sweepBlock), bins, hist)
		})
	if err != nil {
		return err
	}
	for _, hist := range partials {
		for k, v := range hist {
			counts[k] += int(v)
		}
	}
	// counts[k] holds the unordered pairs whose bin is k: cumulate, and
	// double for the two orders of each pair.
	running := 0
	for k, v := range counts {
		running += v
		counts[k] = 2 * running
	}
	return nil
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
