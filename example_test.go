package geostat_test

import (
	"fmt"
	"math/rand"

	"geostat"
)

// Build a heatmap and locate the hotspot — the Definition 1 workflow.
func ExampleKDVDataset() {
	rng := rand.New(rand.NewSource(42))
	region := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	data := geostat.GaussianClusters(rng, 5000, region, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 30, Y: 70}, Sigma: 5, Weight: 1},
	}, 0.2)

	heat, err := geostat.KDVDataset(data, geostat.KDVOptions{
		Kernel: geostat.MustKernel(geostat.Quartic, 8),
		Grid:   geostat.NewPixelGrid(region, 100, 100),
	})
	if err != nil {
		panic(err)
	}
	ix, iy, _ := heat.ArgMax()
	c := heat.Spec.Center(ix, iy)
	fmt.Printf("hotspot near (%.0f, %.0f)\n", c.X, c.Y)
	// Output: hotspot near (30, 70)
}

// Test whether apparent hotspots are statistically meaningful — the
// Definition 3 workflow (Figure 2's reading).
func ExampleKFunctionPlot() {
	rng := rand.New(rand.NewSource(7))
	region := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	clustered := geostat.MaternCluster(rng, region, 0.004, 25, 3)
	random := geostat.UniformCSR(rng, clustered.N(), region)

	opt := geostat.KPlotOptions{
		Thresholds:  []float64{5},
		Simulations: 19,
		Window:      region,
	}
	p1, _ := geostat.KFunctionPlot(clustered.Points(), opt, rng)
	p2, _ := geostat.KFunctionPlot(random.Points(), opt, rng)
	fmt.Println("Matérn process:", p1.RegimeAt(0))
	fmt.Println("uniform process:", p2.RegimeAt(0))
	// Output:
	// Matérn process: clustered
	// uniform process: random
}

// The spatial autocorrelation screen before interpolating sensor data.
func ExampleMoranIOpt() {
	rng := rand.New(rand.NewSource(3))
	region := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	sensors := geostat.UniformCSR(rng, 500, region)
	geostat.WithField(rng, sensors, func(p geostat.Point) float64 { return p.X / 10 }, 0.5)

	w, _ := geostat.KNNWeightsDataset(sensors, 8, -1)
	res, _ := geostat.MoranIOpt(sensors.Values(), w, geostat.MoranOptions{Perms: 99, Seed: rng.Int63(), Workers: -1})
	fmt.Printf("positive autocorrelation: %v (p < 0.05: %v)\n", res.I > 0.5, res.P < 0.05)
	// Output: positive autocorrelation: true (p < 0.05: true)
}

// Network density: events snapped to roads, density per 10 m of street.
func ExampleNKDV() {
	roads := geostat.GridNetwork(5, 5, 100, geostat.Point{})
	accidents := geostat.ClusteredNetworkEvents(roads, 500, 1, 30, 9)

	surf, err := geostat.NKDV(roads, accidents, geostat.NKDVOptions{
		Kernel:      geostat.MustKernel(geostat.Quartic, 120),
		LixelLength: 10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d road segments scored; hottest density > 0: %v\n",
		len(surf.Lixels), surf.Values[surf.ArgMax()] > 0)
	// Output: 400 road segments scored; hottest density > 0: true
}
