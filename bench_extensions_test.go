package geostat

// Benchmarks for the extension features, mapped to the ablation experiments
// (cmd/geobench's A1 times the multi-bandwidth KDV):
//
//	A2 -> BenchmarkKDVAdaptive    A3 -> BenchmarkNKDVEqualSplit
//	streaming -> BenchmarkKDVStream
//	cross-K/Knox/Geary/contour/bandwidth -> their own families below

import (
	"fmt"
	"math/rand"
	"testing"
)

// A2: adaptive KDV (per-point bandwidths) vs fixed.
func BenchmarkKDVAdaptive(b *testing.B) {
	d := benchData(20000)
	grid := NewPixelGrid(benchBox, 128, 128)
	bw, err := AdaptiveBandwidths(d, 16, 1.0, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := KDVDataset(d, KDVOptions{Kernel: MustKernel(Quartic, 6), Grid: grid}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := KDVAdaptive(d, bw, Quartic, grid, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pilot-bandwidths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AdaptiveBandwidths(d, 16, 1.0, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Streaming: per-event incremental update vs full batch recomputation.
func BenchmarkKDVStream(b *testing.B) {
	d := benchData(5000)
	pts := d.Points()
	grid := NewPixelGrid(benchBox, 128, 128)
	k := MustKernel(Quartic, 6)
	b.Run("batch-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := KDVDataset(d, KDVOptions{Kernel: k, Grid: grid}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental-add-remove", func(b *testing.B) {
		s, err := NewKDVStream(k, grid)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			s.Add(p)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			s.Remove(p)
			s.Add(p)
		}
	})
}

// A3: plain vs equal-split network kernels.
func BenchmarkNKDVEqualSplit(b *testing.B) {
	g := GridNetwork(10, 10, 10, Point{})
	events := RandomNetworkEventsRand(NewRand(1), g, 800)
	opt := NKDVOptions{Kernel: MustKernel(Epanechnikov, 15), LixelLength: 1}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NKDV(g, events, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("equal-split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NKDVEqualSplit(g, events, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Bivariate K and the Knox space-time screen.
func BenchmarkCrossK(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	a := UniformCSR(r, 20000, benchBox)
	bb := UniformCSR(r, 2000, benchBox)
	thresholds := []float64{1, 2, 4, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CrossKFunctionCurve(a, bb, thresholds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKnox(b *testing.B) {
	d := benchSTData(5000)
	r := rand.New(rand.NewSource(3))
	for _, perms := range []int{99, 999} {
		b.Run(fmt.Sprintf("perms=%d", perms), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KnoxTest(d, 4, 8, perms, 1, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGeary(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	d := UniformCSR(r, 5000, benchBox)
	WithField(r, d, func(p Point) float64 { return p.X }, 1)
	w, err := KNNWeightsDataset(d, 8, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GearyCOpt(d.Values(), w, MoranOptions{Perms: 99, Seed: r.Int63(), Workers: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContour(b *testing.B) {
	hm, err := KDVDataset(benchData(10000), KDVOptions{Kernel: MustKernel(Quartic, 6), Grid: NewPixelGrid(benchBox, 256, 256)})
	if err != nil {
		b.Fatal(err)
	}
	_, _, peak := hm.ArgMax()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if segs := hm.Contour(peak / 2); len(segs) == 0 {
			b.Fatal("no contour")
		}
	}
}

// Bandwidth selection cost.
func BenchmarkBandwidthSelection(b *testing.B) {
	d := benchData(3000)
	pts := d.Points()
	b.Run("silverman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SilvermanBandwidth(pts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cv-3-candidates", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SelectBandwidthCV(d, Quartic, []float64{3, 6, 12}, 4, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
