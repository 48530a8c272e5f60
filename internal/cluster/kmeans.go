package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

// KMeansResult holds a k-means clustering.
type KMeansResult struct {
	Centers []geom.Point
	Labels  []int
	Inertia float64 // sum of squared distances to assigned centers
	Iters   int
}

// KMeans runs Lloyd's algorithm with k-means++ seeding until assignment
// convergence or maxIters.
func KMeans(cols dataset.Columns, k, maxIters int, rng *rand.Rand) (*KMeansResult, error) {
	n := cols.N()
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("cluster: k=%d exceeds n=%d", k, n)
	}
	if maxIters < 1 {
		maxIters = 100
	}
	centers := seedPlusPlus(cols, k, rng)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var iters int
	for iters = 1; iters <= maxIters; iters++ {
		changed := false
		for i := range labels {
			p := pointAt(cols, i)
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := p.Dist2(ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centers; empty clusters re-seed on the farthest point.
		var sums = make([]geom.Point, k)
		counts := make([]int, k)
		for i, l := range labels {
			sums[l] = sums[l].Add(pointAt(cols, i))
			counts[l]++
		}
		for c := range centers {
			if counts[c] == 0 {
				centers[c] = farthestPoint(cols, centers)
				continue
			}
			centers[c] = sums[c].Scale(1 / float64(counts[c]))
		}
	}
	inertia := 0.0
	for i, l := range labels {
		inertia += pointAt(cols, i).Dist2(centers[l])
	}
	return &KMeansResult{Centers: centers, Labels: labels, Inertia: inertia, Iters: iters}, nil
}

// seedPlusPlus picks k initial centers with the k-means++ scheme.
func seedPlusPlus(pts dataset.Columns, k int, rng *rand.Rand) []geom.Point {
	n := pts.N()
	centers := make([]geom.Point, 0, k)
	centers = append(centers, pointAt(pts, rng.Intn(n)))
	d2 := make([]float64, n)
	for len(centers) < k {
		total := 0.0
		last := centers[len(centers)-1]
		for i := range d2 {
			d := pointAt(pts, i).Dist2(last)
			if len(centers) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with centers; duplicate one.
			centers = append(centers, pointAt(pts, rng.Intn(n)))
			continue
		}
		target := rng.Float64() * total
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				centers = append(centers, pointAt(pts, i))
				break
			}
		}
		if target > 0 { // floating-point tail
			centers = append(centers, pointAt(pts, n-1))
		}
	}
	return centers
}

func farthestPoint(pts dataset.Columns, centers []geom.Point) geom.Point {
	best := pointAt(pts, 0)
	bestD := -1.0
	for i := range pts.X {
		p := pointAt(pts, i)
		near := math.Inf(1)
		for _, c := range centers {
			near = math.Min(near, p.Dist2(c))
		}
		if near > bestD {
			bestD = near
			best = p
		}
	}
	return best
}

// pointAt returns point i of the columns.
func pointAt(c dataset.Columns, i int) geom.Point { return geom.Point{X: c.X[i], Y: c.Y[i]} }
