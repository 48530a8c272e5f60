package kde

import (
	"fmt"
	"sync"
	"sync/atomic"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/kdtree"
)

// buildBound constructs the ε-approximate evaluator of the function-
// approximation family of §2.2 (QUAD [25], KARL [34], Gray & Moore [51])
// on the kd-tree of the columns: the dataset snapshot's memoised tree when
// the columns are a snapshot's, else one built over them
// (dataset.Columns.Tree). For each pixel q a best-first refinement keeps
//
//	LB(q) = Σ_frontier lb(node) ≤ F(q) ≤ Σ_frontier ub(node) = UB(q)
//
// over a frontier of tree nodes, and splits the node with the largest
// bracket gap until UB ≤ (1+ε)·LB, ε = Options.Epsilon. Returning
// R = (LB+UB)/2 then satisfies Equation 6's guarantee:
// (1−ε)·F(q) ≤ R(q) ≤ (1+ε)·F(q).
//
// A node's bracket is KARL's. Kernels are non-increasing in x = d², and
// the node box puts every point's x in [x₋, x₊] (MinDist2, MaxDist2), so
// n·K(x₊) ≤ Σ K(xᵢ) ≤ n·K(x₋) — the plain bracket. The node's moments
// (count n, centroid c, scatter S) give the exact Σxᵢ = S + n·|c−q|². For a
// kernel convex in x (kernel.ConvexInD2: all but uniform) the chord from
// (x₋, K(x₋)) to (x₊, K(x₊)) lies above K, so
//
//	Σ K(xᵢ) ≤ n·K(x₋) + (K(x₊)−K(x₋))/(x₊−x₋) · (Σxᵢ − n·x₋)
//
// and Jensen gives Σ K(xᵢ) ≥ n·K(Σxᵢ/n). Both are clamped into the plain
// bracket, which is all the uniform kernel gets.
//
// Unlike the exact accelerators this works for every kernel, including the
// infinite-support Gaussian and exponential kernels.
func buildBound(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
	if !(opt.Epsilon > 0) {
		return nil, 0, fmt.Errorf("kde: BoundApprox needs eps > 0, got %g", opt.Epsilon)
	}
	tree, built := cols.Tree()
	return &boundComputer{
		opt:    opt,
		tree:   tree,
		built:  built,
		convex: opt.Kernel.ConvexInD2(),
		eval:   chunkEvalFor(opt.Kernel),
	}, 1, nil
}

type boundComputer struct {
	opt    *Options
	tree   *kdtree.Tree
	built  bool      // the tree was built for this call, not taken from a snapshot
	convex bool      // the kernel takes KARL's chord and Jensen bounds
	eval   chunkEval // resolves a leaf exactly

	expanded atomic.Int64 // nodes expanded over all rows: kde.evaluate's refinements
}

// gapHeaps holds refinement queues between rows and between calls, so a
// warm evaluation allocates no queue whatever the tree's size.
var gapHeaps sync.Pool // *gapHeap

// gapEntry is one unresolved tree node in the per-pixel refinement queue.
type gapEntry struct {
	id     int32
	lb, ub float64 // this node's contribution bracket
	gap    float64 // ub − lb
}

// gapHeap is a max-heap on gap.
type gapHeap []gapEntry

func (h *gapHeap) push(e gapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].gap >= (*h)[i].gap {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *gapHeap) pop() gapEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && old[l].gap > old[big].gap {
			big = l
		}
		if r < n && old[r].gap > old[big].gap {
			big = r
		}
		if big == i {
			break
		}
		old[i], old[big] = old[big], old[i]
		i = big
	}
	return top
}

// totals sums the brackets on the heap plus settled.
func (h gapHeap) totals(settled float64) (lb, ub float64) {
	lb, ub = settled, settled
	for _, e := range h {
		lb += e.lb
		ub += e.ub
	}
	return lb, ub
}

// computeRow fills one raster row. The node expansions are summed per row
// and published once, so the pixel loop allocates nothing.
func (c *boundComputer) computeRow(iy int, row []float64) {
	g := c.opt.Grid
	qy := g.CenterY(iy)
	hp, _ := gapHeaps.Get().(*gapHeap)
	if hp == nil {
		hp = &gapHeap{}
	}
	expanded := 0
	for ix := range row {
		v, n := c.estimate(geom.Point{X: g.CenterX(ix), Y: qy}, hp)
		row[ix] = v
		expanded += n
	}
	gapHeaps.Put(hp)
	c.expanded.Add(int64(expanded))
}

// estimate runs the best-first refinement for one pixel and returns R(q)
// and the number of nodes it expanded.
func (c *boundComputer) estimate(q geom.Point, hp *gapHeap) (r float64, expanded int) {
	root := c.tree.Root()
	if root < 0 {
		return 0, 0
	}
	eps := c.opt.Epsilon
	*hp = (*hp)[:0]
	settled := 0.0 // contributions known exactly: resolved leaves, closed brackets
	lb, ub := c.add(hp, root, q, &settled)
	for len(*hp) > 0 {
		if ub <= (1+eps)*lb {
			// lb and ub are running totals that swap a node's bracket for its
			// children's, and a large bracket subtracted back out can take
			// small ones with it. Stop only on a fresh sum, whose terms are
			// all ≥ 0 and so accurate to rounding.
			lb, ub = hp.totals(settled)
			if ub <= (1+eps)*lb {
				return (lb + ub) / 2, expanded
			}
		}
		e := hp.pop()
		expanded++
		lb -= e.lb
		ub -= e.ub
		left, right := c.tree.Children(e.id)
		if left < 0 {
			xs, ys := c.tree.NodeColumns(e.id)
			v, _ := c.eval(0, q.X, q.Y, xs, ys)
			settled += v
			lb += v
			ub += v
			continue
		}
		for _, child := range [2]int32{left, right} {
			clb, cub := c.add(hp, child, q, &settled)
			lb += clb
			ub += cub
		}
	}
	return settled, expanded
}

// add scores node ni at q and files it: on the heap while its bracket is
// open, into *settled once it has closed. It returns the bracket.
func (c *boundComputer) add(hp *gapHeap, ni int32, q geom.Point, settled *float64) (lb, ub float64) {
	lb, ub = c.bracket(ni, q)
	if ub > lb {
		hp.push(gapEntry{id: ni, lb: lb, ub: ub, gap: ub - lb})
	} else {
		*settled += lb
	}
	return lb, ub
}

// bracket returns node ni's contribution bracket [lb, ub] at q: KARL's
// chord and Jensen bounds for a kernel convex in d², clamped into the plain
// count·K(x₊), count·K(x₋) bracket (see buildBound).
func (c *boundComputer) bracket(ni int32, q geom.Point) (lb, ub float64) {
	k := c.opt.Kernel
	box := c.tree.NodeBox(ni)
	x0, x1 := box.MinDist2(q), box.MaxDist2(q)
	count, cen, s := c.tree.NodeMoments(ni)
	n := float64(count)
	k0, k1 := k.Eval2(x0), k.Eval2(x1)
	lb, ub = n*k1, n*k0
	if !c.convex || x1 <= x0 || ub <= lb {
		return lb, ub
	}
	mean := min(max(s/n+cen.Dist2(q), x0), x1) // Σxᵢ/n, kept in [x₋, x₊] against rounding
	t := (mean - x0) / (x1 - x0)
	ub = max(lb, min(ub, n*(k0+t*(k1-k0))))
	lb = min(max(lb, n*k.Eval2(mean)), ub)
	return lb, ub
}
