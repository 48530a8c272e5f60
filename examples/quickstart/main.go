// Quickstart: generate a clustered dataset, render a KDV heatmap, and test
// whether its hotspots are statistically meaningful with a K-function plot
// — the two headline tools of the paper in ~50 lines.
package main

import (
	"fmt"
	"log"

	"geostat"
)

func main() {
	rng := geostat.NewRand(7)
	region := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

	// 10,000 events with one planted hotspot plus background noise.
	data := geostat.GaussianClusters(rng, 10000, region, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 35, Y: 65}, Sigma: 7, Weight: 1},
	}, 0.3)

	// Kernel density visualization (Definition 1): quartic kernel, exact
	// sweep-line algorithm picked automatically, all cores.
	heat, err := geostat.KDVDataset(data, geostat.KDVOptions{
		Kernel:  geostat.MustKernel(geostat.Quartic, 6),
		Grid:    geostat.NewPixelGrid(region, 256, 256),
		Workers: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if werr := heat.WritePNGFile("quickstart_heatmap.png", geostat.HeatRamp); werr != nil {
		log.Fatal(werr)
	}
	ix, iy, peak := heat.ArgMax()
	hot := heat.Spec.Center(ix, iy)
	fmt.Printf("hotspot at (%.1f, %.1f), peak density %.1f -> quickstart_heatmap.png\n",
		hot.X, hot.Y, peak)

	// Is the hotspot meaningful, or would random data look the same?
	// K-function plot (Definition 3) with 39 CSR simulations.
	plot, err := geostat.KFunctionPlotDataset(data, geostat.KPlotOptions{
		Thresholds:  []float64{2, 4, 6, 8, 10},
		Simulations: 39,
		Window:      region,
		Workers:     -1,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range plot.S {
		fmt.Printf("K(%4.1f) = %8.0f   envelope [%8.0f, %8.0f]   -> %s\n",
			s, plot.K[i], plot.Lo[i], plot.Hi[i], plot.RegimeAt(i))
	}
}
