// Traffic accident analysis on a road network — the transportation-science
// workflow of §2.2/§2.3 (Figure 3): accidents live ON the network, so
// planar KDV and planar K-functions overestimate density and clustering
// across network gaps. This example compares planar vs network analysis on
// the same accidents.
package main

import (
	"fmt"
	"log"

	"geostat"
)

func main() {
	rng := geostat.NewRand(88)

	// A 12x9 Manhattan street grid, 100 m between intersections.
	roads := geostat.GridNetwork(12, 9, 100, geostat.Point{})
	fmt.Printf("street network: %d intersections, %d segments, %.1f km of road\n",
		roads.NumNodes(), roads.NumEdges(), roads.TotalLength()/1000)

	// 4,000 accidents concentrated around 4 dangerous corridors.
	accidents := geostat.ClusteredNetworkEvents(roads, 4000, 4, 60, 88)

	// Network KDV on 10 m lixels: one bounded Dijkstra per accident.
	surf, err := geostat.NKDV(roads, accidents, geostat.NKDVOptions{
		Kernel:      geostat.MustKernel(geostat.Quartic, 150),
		LixelLength: 10,
		Workers:     -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	li := surf.ArgMax()
	lx := surf.Lixels[li]
	hot := roads.PointAt(lx.Edge, lx.Center())
	fmt.Printf("most dangerous 10 m road segment: edge %d at (%.0f, %.0f), density %.1f\n",
		lx.Edge, hot.X, hot.Y, surf.Values[li])

	// Top-5 corridors by density.
	fmt.Println("top road segments:")
	printed := 0
	used := map[int32]bool{}
	for printed < 5 {
		best, bestV := -1, -1.0
		for i, v := range surf.Values {
			if !used[surf.Lixels[i].Edge] && v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			break
		}
		l := surf.Lixels[best]
		used[l.Edge] = true
		p := roads.PointAt(l.Edge, l.Center())
		fmt.Printf("  edge %3d near (%4.0f, %4.0f): density %.1f\n", l.Edge, p.X, p.Y, bestV)
		printed++
	}

	// Planar vs network K-function: the planar one sees "clusters" across
	// blocks that are far apart by road.
	thresholds := []float64{50, 100, 200, 400}
	netCurve, err := geostat.NetworkKFunctionCurve(roads, accidents, thresholds, -1)
	if err != nil {
		log.Fatal(err)
	}
	planarPts := make([]geostat.Point, len(accidents))
	for i, ev := range accidents {
		planarPts[i] = roads.PointAt(ev.Edge, ev.Offset)
	}
	planarCurve, err := geostat.KFunctionCurve(geostat.FromPoints(planarPts), thresholds, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairs within s: planar (Euclidean) vs network (shortest path):")
	for i, s := range thresholds {
		fmt.Printf("  s=%4.0f m: planar %8d   network %8d   (planar overcounts %.1fx)\n",
			s, planarCurve[i], netCurve[i], float64(planarCurve[i])/float64(netCurve[i]))
	}

	// Significance on the network's own null model (uniform by length).
	plot, err := geostat.NetworkKFunctionPlot(roads, accidents, thresholds, 19, -1, rng)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range thresholds {
		fmt.Printf("  network K(%4.0f) = %8.0f  envelope [%8.0f, %8.0f]  %s\n",
			s, plot.K[i], plot.Lo[i], plot.Hi[i], plot.RegimeAt(i))
	}
}
