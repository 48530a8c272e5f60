package dataset

import (
	"math/bits"

	"geostat/internal/geom"
	"geostat/internal/index/kdtree"
)

// ChunkSize is the number of points per storage chunk. 4096 points is
// 32 KiB per coordinate column — two columns stream through L1/L2 while a
// raster row's accumulators stay register- or cache-resident, which is the
// cache-blocking grain the columnar evaluation loops in internal/kde,
// internal/kfunc and internal/idw are built around. Chunk boundaries are
// also the natural slicing grain for tile sharding and append-only
// versioning (ROADMAP items 1 and 4).
const ChunkSize = 4096

// Chunk is the metadata of one fixed-size storage chunk: the half-open
// column range [Lo, Hi) it covers plus its bounding box, which lets
// distance-bounded tools reject the whole chunk without touching points.
type Chunk struct {
	// Lo and Hi bound the chunk's half-open slice of the columns.
	Lo, Hi int
	// BBox is the bounding box of the chunk's points. A query point
	// farther than the kernel support from BBox cannot receive any
	// contribution from this chunk.
	BBox geom.BBox
}

// Columns is the structure-of-arrays view of a point set: coordinate
// columns with per-chunk aggregates. The inner loops of the analytic tools
// iterate these slices directly.
//
// The fields are read-only outside internal/dataset: writing them (or
// re-slicing and writing through them) silently breaks the chunk
// aggregates and the X/Y length invariant. The geolint colaccess analyzer
// rejects such writes at lint time.
type Columns struct {
	// X and Y are the coordinate columns; len(X) == len(Y).
	X, Y []float64
	// Chunks partitions [0, len(X)) into ChunkSize-sized ranges with
	// precomputed aggregates.
	Chunks []Chunk

	// snap is the dataset whose coordinates these are, when they are all of
	// them in its order (Dataset.Columns, kept by a FilterBox that keeps
	// every point); Tree answers from its memo.
	snap *Dataset
}

// N returns the number of points in the columns.
func (c Columns) N() int { return len(c.X) }

// Bounds returns the bounding box of the columns, computed from the chunk
// aggregates (O(chunks), not O(n)).
func (c Columns) Bounds() geom.BBox {
	b := geom.EmptyBBox()
	for _, ch := range c.Chunks {
		b = b.Union(ch.BBox)
	}
	return b
}

// MakeColumns builds a chunked SoA view of pts. The coordinates are
// copied into fresh columns. This is the adapter the []geom.Point entry
// points of the analytic tools use to reach the columnar inner loops.
func MakeColumns(pts []geom.Point) Columns {
	x := make([]float64, len(pts))
	y := make([]float64, len(pts))
	for i, p := range pts {
		x[i] = p.X
		y[i] = p.Y
	}
	return Columns{X: x, Y: y, Chunks: buildChunks(x, y)}
}

// Tree returns a kd-tree over the columns' points and whether this call
// built it. Columns of a dataset snapshot answer with the snapshot's
// memoised tree (Dataset.Tree, built once and shared); any other columns —
// MakeColumns, Gather, a clipped FilterBox — get a tree built now.
func (c Columns) Tree() (t *kdtree.Tree, built bool) {
	if c.snap != nil {
		return c.snap.Tree()
	}
	return kdtree.NewColumns(c.X, c.Y), true
}

// Gather returns fresh columns holding the points at idx, in idx order
// (indices may repeat).
func (c Columns) Gather(idx []int) Columns {
	x := make([]float64, len(idx))
	y := make([]float64, len(idx))
	for j, i := range idx {
		x[j], y[j] = c.X[i], c.Y[i]
	}
	return Columns{X: x, Y: y, Chunks: buildChunks(x, y)}
}

// FilterBox returns the points inside box (boundary inclusive) in their
// original order. When every chunk lies inside box, the receiver itself is
// returned — same backing arrays, nothing allocated — which is what a
// full-extent view or an already halo-filtered shard subset hits.
func (c Columns) FilterBox(box geom.BBox) Columns {
	s := selectBox(c, box)
	if s.n == c.N() {
		// A chunk's box is tight, so every point inside means every chunk
		// lies inside box: no point was tested.
		return c
	}
	x, y := s.take(c.X), s.take(c.Y)
	return Columns{X: x, Y: y, Chunks: buildChunks(x, y)}
}

// boxSelection is the set of points of some chunked columns that lie
// inside a box. Chunk aggregates decide wholesale where they can: a chunk
// whose bounding box lies inside the box is kept whole, one that misses it
// is dropped, and only a chunk straddling the edge is tested point by
// point — once: the test marks the points inside in a bitset, 64 to a word
// (chunks start at multiples of 64), and take visits only the marked ones,
// so a small view of a large dataset pays one pass, not two.
type boxSelection struct {
	box    geom.BBox
	chunks []Chunk
	in     []uint64 // straddling chunks' points inside box, one bit each
	n      int      // selected points
}

// selectBox marks the points of c inside box.
func selectBox(c Columns, box geom.BBox) boxSelection {
	var in []uint64
	n := 0
	for _, ch := range c.Chunks {
		switch {
		case box.ContainsBox(ch.BBox):
			n += ch.Hi - ch.Lo
		case box.Intersects(ch.BBox):
			if in == nil {
				in = make([]uint64, (c.N()+63)/64)
			}
			for lo := ch.Lo; lo < ch.Hi; lo += 64 {
				xs := c.X[lo:min(lo+64, ch.Hi)]
				ys := c.Y[lo : lo+len(xs)]
				var word uint64
				for k, x := range xs {
					word |= uint64(inBox(box, x, ys[k])) << k
				}
				in[lo/64] = word
				n += bits.OnesCount64(word)
			}
		}
	}
	return boxSelection{box: box, chunks: c.Chunks, in: in, n: n}
}

// take returns a fresh column holding the selected entries of col, in
// order; a nil column (an absent optional one) stays nil.
func (s *boxSelection) take(col []float64) []float64 {
	if col == nil {
		return nil
	}
	out := make([]float64, s.n)
	j := 0
	for _, ch := range s.chunks {
		switch {
		case s.box.ContainsBox(ch.BBox):
			j += copy(out[j:], col[ch.Lo:ch.Hi])
		case s.box.Intersects(ch.BBox):
			for lo := ch.Lo; lo < ch.Hi; lo += 64 {
				for word := s.in[lo/64]; word != 0; word &= word - 1 {
					out[j] = col[lo+bits.TrailingZeros64(word)]
					j++
				}
			}
		}
	}
	return out
}

// inBox is 1 if (x, y) lies inside box, boundary inclusive exactly as
// BBox.Contains, and 0 otherwise. The four comparisons are combined as
// integers and not with &&: whether a point of a straddling chunk is inside
// is a coin flip the branch predictor loses, and the per-point filter loops
// run about three times faster without the branches.
func inBox(box geom.BBox, x, y float64) int {
	return b2i(x >= box.MinX) & b2i(x <= box.MaxX) & b2i(y >= box.MinY) & b2i(y <= box.MaxY)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildChunks computes the per-chunk aggregates over the given columns.
func buildChunks(x, y []float64) []Chunk {
	n := len(x)
	if n == 0 {
		return nil
	}
	chunks := make([]Chunk, 0, (n+ChunkSize-1)/ChunkSize)
	for lo := 0; lo < n; lo += ChunkSize {
		hi := min(lo+ChunkSize, n)
		ch := Chunk{Lo: lo, Hi: hi, BBox: geom.EmptyBBox()}
		for i := lo; i < hi; i++ {
			ch.BBox = ch.BBox.ExtendPoint(geom.Point{X: x[i], Y: y[i]})
		}
		chunks = append(chunks, ch)
	}
	return chunks
}
