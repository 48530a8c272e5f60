package geostat

// One benchmark family per paper artifact / complexity claim, mirroring the
// per-experiment index in DESIGN.md (run `go test -bench=. -benchmem`;
// cmd/geobench prints the same comparisons as human-readable tables):
//
//	T2 -> BenchmarkKDVKernels          F1/F5 -> BenchmarkHeatmapRender
//	F2 -> BenchmarkKFunctionPlot       F3    -> BenchmarkNKDV
//	F4 -> BenchmarkSTKDV               F6    -> BenchmarkSTKFunction
//	C1 -> BenchmarkKFunctionScaling    C2    -> BenchmarkKDVScaling
//	C3 -> BenchmarkKDVApprox           C4    -> BenchmarkKDVSample
//	C5 -> BenchmarkKDVParallel + BenchmarkKFunctionParallel
//	C6 -> BenchmarkNetworkKFunction    C7    -> BenchmarkIDW
//	C8 -> BenchmarkKriging, BenchmarkMoran, BenchmarkGetisOrd, BenchmarkDBSCAN
//	C9 -> BenchmarkKDVView

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

var benchBox = BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func benchData(n int) *Dataset {
	rng := rand.New(rand.NewSource(1234))
	return GaussianClusters(rng, n, benchBox, []GaussianCluster{
		{Center: Point{X: 30, Y: 60}, Sigma: 8, Weight: 2},
		{Center: Point{X: 70, Y: 25}, Sigma: 5, Weight: 1},
	}, 0.3)
}

func benchPoints(n int) []Point { return benchData(n).Points() }

// T2: one exact KDV per kernel type (auto-dispatched algorithm).
func BenchmarkKDVKernels(b *testing.B) {
	data := benchData(5000)
	grid := NewPixelGrid(benchBox, 64, 64)
	for _, kt := range AllKernels() {
		b.Run(kt.String(), func(b *testing.B) {
			opt := KDVOptions{Kernel: MustKernel(kt, 8), Grid: grid}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KDVDataset(data, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C2: KDV scaling — naive vs grid-cutoff vs sweep-line over n.
func BenchmarkKDVScaling(b *testing.B) {
	grid := NewPixelGrid(benchBox, 128, 128)
	k := MustKernel(Quartic, 4)
	for _, n := range []int{2000, 8000, 32000} {
		data := benchData(n)
		for _, m := range []KDVMethod{KDVNaive, KDVGridCutoff, KDVSweepLine} {
			b.Run(fmt.Sprintf("%s/n=%d", m, n), func(b *testing.B) {
				opt := KDVOptions{Kernel: k, Grid: grid, Method: m}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := KDVDataset(data, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// C9: view scaling — fixed n and raster, a view of 1, 1/4, 1/16 and 1/64 of
// the box with the bandwidth 2% of the view side (the tile-pyramid rule).
// Time and bytes per op should follow the points in view, not n.
func BenchmarkKDVView(b *testing.B) {
	d := benchData(100000)
	for _, m := range []struct {
		method KDVMethod
		pixels int
	}{{KDVNaive, 16}, {KDVGridCutoff, 256}, {KDVSweepLine, 256}} {
		for _, div := range []int{1, 2, 4, 8} {
			w := benchBox.Width() / float64(div)
			lo := (benchBox.Width() - w) / 2
			view := BBox{MinX: lo, MinY: lo, MaxX: lo + w, MaxY: lo + w}
			opt := KDVOptions{
				Kernel: MustKernel(Quartic, 2/float64(div)),
				Grid:   NewPixelGrid(view, m.pixels, m.pixels),
				Method: m.method,
			}
			b.Run(fmt.Sprintf("%s/view=1:%d", m.method, div*div), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := KDVDataset(d, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// C3: bound-based (1±ε) approximation on the Gaussian kernel.
func BenchmarkKDVApprox(b *testing.B) {
	data := benchData(20000)
	grid := NewPixelGrid(benchBox, 64, 64)
	k := MustKernel(Gaussian, 8)
	b.Run("naive-exact", func(b *testing.B) {
		opt := KDVOptions{Kernel: k, Grid: grid, Method: KDVNaive}
		for i := 0; i < b.N; i++ {
			if _, err := KDVDataset(data, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, eps := range []float64{0.5, 0.1, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			opt := KDVOptions{Kernel: k, Grid: grid, Method: KDVBoundApprox, Epsilon: eps}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KDVDataset(data, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C4: Hoeffding-sampled KDV; cost is n-independent.
func BenchmarkKDVSample(b *testing.B) {
	grid := NewPixelGrid(benchBox, 64, 64)
	k := MustKernel(Quartic, 8)
	for _, n := range []int{20000, 100000} {
		data := benchData(n)
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := KDVDataset(data, KDVOptions{Kernel: k, Grid: grid}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sampled/n=%d", n), func(b *testing.B) {
			opt := KDVOptions{
				Kernel: k, Grid: grid, Method: KDVSampled,
				Epsilon: 0.05, Delta: 0.01, Seed: 9,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KDVDataset(data, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C5a: row-parallel KDV.
func BenchmarkKDVParallel(b *testing.B) {
	data := benchData(20000)
	grid := NewPixelGrid(benchBox, 256, 256)
	k := MustKernel(Quartic, 4)
	for _, w := range []int{1, -1} {
		name := "serial"
		if w < 0 {
			name = "all-cores"
		}
		b.Run(name, func(b *testing.B) {
			opt := KDVOptions{Kernel: k, Grid: grid, Method: KDVGridCutoff, Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := KDVDataset(data, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C1: K-function scaling — naive vs indexed vs one-pass curve.
func BenchmarkKFunctionScaling(b *testing.B) {
	thresholds := []float64{1, 2, 4, 8}
	for _, n := range []int{2000, 8000} {
		data := benchData(n)
		pts := data.Points()
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				KFunctionNaive(data, 4)
			}
		})
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				KFunction(pts, 4)
			}
		})
		b.Run(fmt.Sprintf("kdtree/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				KFunctionKDTree(pts, 4)
			}
		})
		b.Run(fmt.Sprintf("curve4/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KFunctionCurve(data, thresholds, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C5b: parallel one-pass K-curve.
func BenchmarkKFunctionParallel(b *testing.B) {
	data := benchData(30000)
	thresholds := []float64{1, 2, 4, 8}
	for _, w := range []int{1, -1} {
		name := "serial"
		if w < 0 {
			name = "all-cores"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := KFunctionCurve(data, thresholds, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// F2: the full Definition 3 plot (curve + L simulated envelopes).
func BenchmarkKFunctionPlot(b *testing.B) {
	pts := benchPoints(2000)
	opt := KPlotOptions{
		Thresholds:  []float64{2, 4, 6, 8, 10},
		Simulations: 19,
		Window:      benchBox,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KFunctionPlot(pts, opt, rand.New(rand.NewSource(7))); err != nil {
			b.Fatal(err)
		}
	}
}

// F3: network KDV, baseline vs event-expansion.
func BenchmarkNKDV(b *testing.B) {
	g := GridNetwork(10, 10, 10, Point{})
	events := ClusteredNetworkEvents(g, 1000, 4, 6, 3)
	opt := NKDVOptions{Kernel: MustKernel(Quartic, 15), LixelLength: 2}
	b.Run("naive-per-lixel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NKDVNaive(g, events, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forward-per-event", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NKDV(g, events, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// C6: network K-function, per-pair baseline vs shared bounded Dijkstra.
func BenchmarkNetworkKFunction(b *testing.B) {
	g := GridNetwork(15, 15, 10, Point{})
	events := RandomNetworkEventsRand(NewRand(4), g, 800)
	thresholds := []float64{5, 10, 20, 40}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NetworkKFunction(g, events, 40)
		}
	})
	b.Run("curve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NetworkKFunctionCurve(g, events, thresholds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchSTData(n int) *Dataset {
	rng := rand.New(rand.NewSource(5))
	return SpatioTemporalOutbreak(rng, n, benchBox, 0, 60, []OutbreakWave{
		{Center: Point{X: 25, Y: 30}, Sigma: 6, TimeMean: 15, TimeSigma: 5, Weight: 1},
		{Center: Point{X: 70, Y: 70}, Sigma: 6, TimeMean: 45, TimeSigma: 5, Weight: 1},
	}, 0.1)
}

// F4: STKDV, naive O(XYTn) vs shared footprints.
func BenchmarkSTKDV(b *testing.B) {
	d := benchSTData(5000)
	opt := STKDVOptions{
		SpaceKernel: MustKernel(Quartic, 8),
		TimeKernel:  MustKernel(Epanechnikov, 8),
		Grid:        NewPixelGrid(benchBox, 64, 64),
		Times:       []float64{5, 15, 25, 35, 45, 55},
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := STKDVNaive(d, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := STKDV(d, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// F6: the spatiotemporal K surface, naive per-cell vs one-pass histogram.
func BenchmarkSTKFunction(b *testing.B) {
	d := benchSTData(4000)
	sTh := []float64{2, 4, 8, 16}
	tTh := []float64{2, 5, 10, 20}
	b.Run("naive-per-cell", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sTh {
				for _, t := range tTh {
					STKFunction(d, s, t)
				}
			}
		}
	})
	b.Run("surface-one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := STKFunctionSurface(d, sTh, tTh, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// C7: IDW variants.
func BenchmarkIDW(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	d := UniformCSR(rng, 20000, benchBox)
	WithField(rng, d, func(p Point) float64 { return p.X + p.Y }, 1)
	opt := IDWOptions{Grid: NewPixelGrid(benchBox, 128, 128), Power: 2}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := IDW(d, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("knn12", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := IDWKNN(d, opt, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("radius8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := IDWRadius(d, opt, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// C8a: ordinary kriging by neighbourhood size.
func BenchmarkKriging(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := UniformCSR(rng, 3000, benchBox)
	WithField(rng, d, func(p Point) float64 { return p.X/10 + p.Y/20 }, 0.5)
	bins, err := EmpiricalVariogram(d, 30, 12)
	if err != nil {
		b.Fatal(err)
	}
	v, err := FitVariogram(bins, SphericalModel)
	if err != nil {
		b.Fatal(err)
	}
	grid := NewPixelGrid(benchBox, 48, 48)
	for _, k := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			opt := KrigingOptions{Grid: grid, Variogram: v, Neighbors: k}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Krige(d, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C8b: Moran's I with permutations.
func BenchmarkMoran(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	d := UniformCSR(rng, 5000, benchBox)
	WithField(rng, d, func(p Point) float64 { return p.X }, 1)
	w, err := KNNWeightsDataset(d, 8, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, perms := range []int{0, 99} {
		b.Run(fmt.Sprintf("perms=%d", perms), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MoranIOpt(d.Values(), w, MoranOptions{Perms: perms, Seed: rng.Int63(), Workers: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C8c: Getis-Ord General G and local Gi*.
func BenchmarkGetisOrd(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	d := UniformCSR(rng, 5000, benchBox)
	WithField(rng, d, func(p Point) float64 { return p.X + 100 }, 1)
	w, err := KNNWeightsDataset(d, 8, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generalG-perms99", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GeneralGOpt(d.Values(), w, GetisOrdOptions{Perms: 99, Seed: 7, Workers: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localGstar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LocalGStar(d.Values(), w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// C8d: DBSCAN, naive vs grid-accelerated.
func BenchmarkDBSCAN(b *testing.B) {
	data := benchData(8000)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DBSCANNaive(data, 2, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DBSCAN(data, 2, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// F1/F5: heatmap rendering pipeline (surface -> PNG bytes).
func BenchmarkHeatmapRender(b *testing.B) {
	data := benchData(10000)
	hm, err := KDVDataset(data, KDVOptions{
		Kernel: MustKernel(Quartic, 6),
		Grid:   NewPixelGrid(benchBox, 256, 256),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img := hm.Image(HeatRamp)
		if img.Bounds().Dx() != 256 {
			b.Fatal("bad image")
		}
	}
}

// C1 sidebar: the same K count through all four index structures.
func BenchmarkKFunctionIndexes(b *testing.B) {
	pts := benchPoints(10000)
	const s = 4.0
	for name, fn := range map[string]func([]Point, float64) int{
		"grid":     KFunction,
		"kdtree":   KFunctionKDTree,
		"balltree": KFunctionBallTree,
		"rtree":    KFunctionRTree,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(pts, s)
			}
		})
	}
}

// Tentpole: the unified parallel engine at Workers ∈ {1, GOMAXPROCS}.
// Results are bit-identical across worker counts (see determinism_test.go);
// these measure the speedup side of that contract.

// Moran's I with a 999-permutation test over ≥20k sites.
func BenchmarkMoranParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	d := UniformCSR(rng, 20000, benchBox)
	WithField(rng, d, func(p Point) float64 { return p.X }, 1)
	w, err := KNNWeightsDataset(d, 8, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := MoranOptions{Perms: 999, Seed: 11, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MoranIOpt(d.Values(), w, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// K-function plot: 99 CSR envelope simulations fanned out across workers.
func BenchmarkKPlotParallel(b *testing.B) {
	pts := benchPoints(4000)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := KPlotOptions{
				Thresholds:  []float64{2, 4, 6, 8, 10},
				Simulations: 99,
				Window:      benchBox,
				Workers:     workers,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KFunctionPlot(pts, opt, rand.New(rand.NewSource(7))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Weight-matrix construction over 50k sites.
func BenchmarkWeightsParallel(b *testing.B) {
	pts := benchPoints(50000)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("knn/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KNNWeightsWorkers(pts, 8, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("band/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DistanceBandWeightsDataset(FromPoints(pts), 2, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
