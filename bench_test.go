package geostat

// Timings that no other harness takes. cmd/geobench prints the paper's
// comparisons (C1-C9, A1) as the tables EXPERIMENTS.md records, and bench/
// times each layer behind bounded end-to-end metrics; a benchmark here
// times a tool or a comparison that neither of them does
// (`go test -run '^$' -bench . -benchmem .`):
//
//	T2 -> BenchmarkKDVKernels    F3 -> BenchmarkNKDV
//	F4 -> BenchmarkSTKDV         F6 -> BenchmarkSTKFunction
//	parallel engine -> BenchmarkMoranParallel, BenchmarkWeightsParallel
//	extensions -> bench_extensions_test.go

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

// The parallel engine at Workers ∈ {1, GOMAXPROCS}.
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

// Weight-matrix construction over 50k sites.
func BenchmarkWeightsParallel(b *testing.B) {
	pts := benchData(50000).Points()
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
