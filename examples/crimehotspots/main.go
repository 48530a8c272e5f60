// Crime hotspot analysis — the criminology workflow from the paper's
// introduction (Chicago-crime-style data): find hotspots with KDV, verify
// their significance with the K-function, pick the analysis scale from the
// clustered region of the plot, delineate the hotspots with DBSCAN, and
// rank them with local Gi* on an incident-count grid.
package main

import (
	"fmt"
	"log"

	"geostat"
)

func main() {
	rng := geostat.NewRand(2023)
	city := geostat.BBox{MinX: 0, MinY: 0, MaxX: 200, MaxY: 150}

	// 50,000 incidents: three hotspot districts of different intensity over
	// diffuse background crime.
	incidents := geostat.GaussianClusters(rng, 50000, city, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 40, Y: 110}, Sigma: 6, Weight: 3},
		{Center: geostat.Point{X: 150, Y: 40}, Sigma: 9, Weight: 2},
		{Center: geostat.Point{X: 110, Y: 100}, Sigma: 4, Weight: 1},
	}, 0.35)
	fmt.Printf("analyzing %d incidents over a %gx%g km city\n",
		incidents.N(), city.Width(), city.Height())

	// Step 1 — significance first (Figure 2's workflow): without this, any
	// dataset produces a colourful heatmap.
	thresholds := []float64{1, 2, 4, 6, 8, 12, 16}
	plot, err := geostat.KFunctionPlotDataset(incidents, geostat.KPlotOptions{
		Thresholds:  thresholds,
		Simulations: 19,
		Window:      city,
		Workers:     -1,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	bandwidth := 0.0
	for i := range thresholds {
		fmt.Printf("  K(%4.1f): %s\n", plot.S[i], plot.RegimeAt(i))
		if plot.RegimeAt(i) == geostat.RegimeClustered && bandwidth == 0 {
			bandwidth = plot.S[i]
		}
	}
	if bandwidth == 0 {
		fmt.Println("no clustered scale found — hotspot analysis would be misleading; stopping.")
		return
	}
	// The paper (§2.1): the clustered threshold doubles as the KDV bandwidth.
	bandwidth *= 2
	fmt.Printf("clustered at every tested scale; using bandwidth %.1f for KDV\n", bandwidth)

	// Step 2 — density surface (exact sweep line under the hood).
	heat, err := geostat.KDVDataset(incidents, geostat.KDVOptions{
		Kernel:  geostat.MustKernel(geostat.Quartic, bandwidth),
		Grid:    geostat.NewPixelGrid(city, 400, 300),
		Workers: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if werr := heat.WritePNGFile("crime_heatmap.png", geostat.HeatRamp); werr != nil {
		log.Fatal(werr)
	}
	fmt.Println("wrote crime_heatmap.png")

	// Step 3 — delineate hotspot areas with DBSCAN at the chosen scale.
	labels, err := geostat.DBSCAN(incidents, 1.2, 30)
	if err != nil {
		log.Fatal(err)
	}
	nClusters := geostat.NumClusters(labels)
	counts := make([]int, nClusters)
	var centroids []geostat.Point
	sums := make([]geostat.Point, nClusters)
	for i, l := range labels {
		if l == geostat.DBSCANNoise {
			continue
		}
		counts[l]++
		sums[l] = sums[l].Add(incidents.Point(i))
	}
	for c := 0; c < nClusters; c++ {
		if counts[c] < 500 {
			continue // skip micro-clusters
		}
		centroids = append(centroids, sums[c].Scale(1/float64(counts[c])))
		fmt.Printf("  hotspot district %d: %d incidents around (%.0f, %.0f)\n",
			len(centroids), counts[c], centroids[len(centroids)-1].X, centroids[len(centroids)-1].Y)
	}

	// Step 4 — hot-spot z-scores: aggregate incidents to a coarse grid and
	// run Getis-Ord Gi* (the ArcGIS "Hot Spot Analysis" equivalent).
	coarse := geostat.NewPixelGrid(city, 20, 15)
	cellCounts := geostat.CountGrid(incidents, coarse).Values
	var cellCenters []geostat.Point
	for iy := 0; iy < coarse.NY; iy++ {
		for ix := 0; ix < coarse.NX; ix++ {
			cellCenters = append(cellCenters, coarse.Center(ix, iy))
		}
	}
	w, err := geostat.DistanceBandWeightsDataset(geostat.FromPoints(cellCenters), 11, -1)
	if err != nil {
		log.Fatal(err)
	}
	z, err := geostat.LocalGStar(cellCounts, w)
	if err != nil {
		log.Fatal(err)
	}
	hot, cold := 0, 0
	for _, v := range z {
		if v >= 1.96 {
			hot++
		}
		if v <= -1.96 {
			cold++
		}
	}
	fmt.Printf("Gi* on a %dx%d grid: %d hot cells, %d cold cells (|z| >= 1.96)\n",
		coarse.NX, coarse.NY, hot, cold)

	// Step 5 — a cross-type question: do incidents concentrate around
	// late-night venues beyond what the city-wide pattern explains? The
	// bivariate K-function with a random-labelling null answers it.
	var venues []geostat.Point
	for i := 0; i < 25; i++ {
		// Venues in the two biggest districts plus a few scattered ones.
		c := geostat.Point{X: 40, Y: 110}
		if i%3 == 1 {
			c = geostat.Point{X: 150, Y: 40}
		} else if i%3 == 2 {
			c = geostat.Point{X: 30 + 140*rng.Float64(), Y: 20 + 110*rng.Float64()}
		}
		venues = append(venues, geostat.Point{
			X: c.X + rng.NormFloat64()*5, Y: c.Y + rng.NormFloat64()*5,
		})
	}
	cross, err := geostat.CrossKFunctionPlot(incidents, geostat.FromPoints(venues), []float64{2, 5, 10}, 19, -1, rng)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range cross.S {
		fmt.Printf("  incidents near venues, s=%4.1f km: %s\n", s, cross.RegimeAt(i))
	}
}
