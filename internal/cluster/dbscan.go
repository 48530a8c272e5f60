// Package cluster implements the spatial clustering tools the paper's
// introduction groups with hotspot analysis ([18, 88]): DBSCAN (with the
// O(n²) baseline and a grid-index-accelerated variant — the paper cites
// the Ω(n^{4/3}) hardness results for exact Euclidean DBSCAN [48, 49]) and
// k-means with k-means++ seeding.
package cluster

import (
	"fmt"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
)

// Noise is the label assigned to points in no cluster.
const Noise = -1

// DBSCANNaive runs DBSCAN with O(n²) neighbourhood queries. Labels are
// cluster ids from 0; noise points get Noise.
func DBSCANNaive(cols dataset.Columns, eps float64, minPts int) ([]int, error) {
	xs, ys := cols.X, cols.Y
	return dbscan(len(xs), eps, minPts, func(i int, dst []int) []int {
		e2 := eps * eps
		for j, x := range xs {
			dx, dy := xs[i]-x, ys[i]-ys[j]
			if dx*dx+dy*dy <= e2 {
				dst = append(dst, j)
			}
		}
		return dst
	})
}

// DBSCAN runs DBSCAN with grid-index neighbourhood queries: the practical
// accelerated variant.
func DBSCAN(cols dataset.Columns, eps float64, minPts int) ([]int, error) {
	idx := gridindex.NewColumns(cols.X, cols.Y, eps)
	return dbscan(cols.N(), eps, minPts, func(i int, dst []int) []int {
		return idx.RangeQuery(geom.Point{X: cols.X[i], Y: cols.Y[i]}, eps, dst)
	})
}

// dbscan is the standard label-propagation formulation: a core point (≥
// minPts neighbours including itself) seeds a cluster that expands through
// the neighbourhoods of its core members. The n points are known to it
// only through neighbors.
func dbscan(n int, eps float64, minPts int, neighbors func(i int, dst []int) []int) ([]int, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("cluster: eps must be positive, got %g", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	var queue, nbuf []int
	next := 0
	for i := range labels {
		if labels[i] != unvisited {
			continue
		}
		nbuf = neighbors(i, nbuf[:0])
		if len(nbuf) < minPts {
			labels[i] = Noise
			continue
		}
		c := next
		next++
		labels[i] = c
		queue = append(queue[:0], nbuf...)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == Noise {
				labels[j] = c // border point claimed by the cluster
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = c
			nbuf = neighbors(j, nbuf[:0])
			if len(nbuf) >= minPts {
				queue = append(queue, nbuf...)
			}
		}
	}
	return labels, nil
}

// NumClusters returns the number of distinct non-noise labels.
func NumClusters(labels []int) int {
	max := -1
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max + 1
}
