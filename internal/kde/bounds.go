package kde

import (
	"fmt"
	"sync"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/balltree"
)

// buildBound constructs the ε-approximate evaluator of the function-
// approximation family of §2.2 (QUAD [25], KARL [34], Gray & Moore [51]):
// for each pixel a best-first traversal of a ball-tree maintains
//
//	LB(q) = Σ_nodes count·K(dMax),  UB(q) = Σ_nodes count·K(dMin)
//
// (kernels are non-increasing in distance, so a node's distance bracket
// [dMin, dMax] brackets every contained point's kernel value) and keeps
// splitting the node with the largest bracket gap until UB ≤ (1+ε)·LB,
// ε = Options.Epsilon. Returning R = (LB+UB)/2 then satisfies Equation 6's
// guarantee: (1−ε)·F(q) ≤ R(q) ≤ (1+ε)·F(q).
//
// Unlike the exact accelerators this works for every kernel, including the
// infinite-support Gaussian and exponential kernels. The guarantee is
// stated for unweighted sums, so the row declares no weights capability.
func buildBound(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
	if !(opt.Epsilon > 0) {
		return nil, 0, fmt.Errorf("kde: BoundApprox needs eps > 0, got %g", opt.Epsilon)
	}
	// The ball-tree API is point-shaped; this is the package's one private
	// array-of-structs hand-off.
	pts := make([]geom.Point, cols.N())
	for i := range pts {
		pts[i] = geom.Point{X: cols.X[i], Y: cols.Y[i]}
	}
	return &boundComputer{opt: opt, tree: balltree.New(pts)}, 1, nil
}

type boundComputer struct {
	opt  *Options
	tree *balltree.Tree

	scratch sync.Pool // *gapHeap
}

// gapEntry is one unresolved tree node in the per-pixel refinement queue.
type gapEntry struct {
	id     balltree.NodeID
	lb, ub float64 // this node's contribution bracket: count·K(dMax), count·K(dMin)
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

func (c *boundComputer) computeRow(iy int, row []float64) {
	g := c.opt.Grid
	qy := g.CenterY(iy)
	hp, _ := c.scratch.Get().(*gapHeap)
	if hp == nil {
		hp = &gapHeap{}
	}
	defer c.scratch.Put(hp)
	for ix := range row {
		row[ix] = c.estimate(geom.Point{X: g.CenterX(ix), Y: qy}, hp)
	}
}

// estimate runs the best-first refinement for one pixel.
func (c *boundComputer) estimate(q geom.Point, hp *gapHeap) float64 {
	root, ok := c.tree.Root()
	if !ok {
		return 0
	}
	k, eps := c.opt.Kernel, c.opt.Epsilon
	*hp = (*hp)[:0]
	entry := c.score(root, q)
	lb, ub := entry.lb, entry.ub
	if entry.gap > 0 {
		hp.push(entry)
	}
	for len(*hp) > 0 && ub > (1+eps)*lb {
		e := hp.pop()
		lb -= e.lb
		ub -= e.ub
		if c.tree.IsLeaf(e.id) {
			exact := 0.0
			c.tree.NodePoints(e.id, func(p geom.Point) {
				exact += k.Eval2(p.Dist2(q))
			})
			lb += exact
			ub += exact
			continue
		}
		l, r := c.tree.Children(e.id)
		for _, child := range [2]balltree.NodeID{l, r} {
			ce := c.score(child, q)
			lb += ce.lb
			ub += ce.ub
			if ce.gap > 0 {
				hp.push(ce)
			}
		}
	}
	return (lb + ub) / 2
}

func (c *boundComputer) score(id balltree.NodeID, q geom.Point) gapEntry {
	k := c.opt.Kernel
	dMin, dMax := c.tree.NodeBracket(id, q)
	cnt := float64(c.tree.NodeCount(id))
	lb := cnt * k.Eval(dMax)
	ub := cnt * k.Eval(dMin)
	return gapEntry{id: id, lb: lb, ub: ub, gap: ub - lb}
}
