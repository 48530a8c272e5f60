package kde

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/obs"
)

// cosQuarterOf returns cosQuarter's value at x.
func cosQuarterOf(x float64) float64 {
	v := []float64{x}
	cosQuarter(v)
	return v[0]
}

// TestCosQuarterMatchesMathCos: cosQuarter is math.Cos bit for bit on its
// domain. It replicates math.cos's expressions, and whether the compiler
// fuses their multiply-adds depends on the target and its settings (arm64
// fuses; amd64 does not, at any GOAMD64); this test, run by the build that
// ships, is what holds the replica to the math package of that build,
// whatever GOARCH and GOAMD64 it uses. It checks
// 10⁷ seeded draws in [0, π/2], ±1000 ulps around 0, π/4 and π/2 (the
// octant edges), and the kernel's own argument π/2·√d²·(1/b) over random
// b and d² < b².
func TestCosQuarterMatchesMathCos(t *testing.T) {
	check := func(what string, x float64) {
		t.Helper()
		if got, want := cosQuarterOf(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cosQuarter(%v) = %v (bits %x), math.Cos = %v (bits %x)",
				what, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	r := rand.New(rand.NewSource(38))
	xs := make([]float64, 4096)
	want := make([]float64, len(xs))
	for done := 0; done < draws; done += len(xs) {
		for i := range xs {
			xs[i] = r.Float64() * (math.Pi / 2)
			want[i] = math.Cos(xs[i])
		}
		cosQuarter(xs)
		for i, got := range xs {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("draw: cosQuarter = %v (bits %x), math.Cos = %v (bits %x)",
					got, math.Float64bits(got), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, c := range []float64{0, math.Pi / 4, math.Pi / 2} {
		lo, hi := c, c
		for k := 0; k < 1000; k++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 4)
			check(fmt.Sprintf("below %v", c), lo)
			check(fmt.Sprintf("above %v", c), hi)
		}
		check("at", c)
	}
	for i := 0; i < 1_000_000; i++ {
		b := math.Exp(r.Float64()*40 - 20)
		d2 := r.Float64() * b * b
		if i%7 == 0 {
			d2 = math.Nextafter(b*b, 0) // the largest d² inside the support
		}
		if d2 < b*b {
			check(fmt.Sprintf("b=%v d2=%v", b, d2), math.Pi/2*math.Sqrt(d2)*(1/b))
		}
	}
}

// FuzzCosQuarter holds cosQuarter to math.Cos on fuzzer-chosen arguments
// in its domain [0, 3π/4).
func FuzzCosQuarter(f *testing.F) {
	for _, x := range []float64{0, 1e-300, 0.5, math.Pi / 4, 1, math.Pi / 2, 2} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		x = math.Abs(x)
		if !(x < 3*math.Pi/4) {
			x = math.Mod(x, 3*math.Pi/4)
		}
		if math.IsNaN(x) {
			return
		}
		if got, want := cosQuarterOf(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cosQuarter(%v) = %v (bits %x), math.Cos = %v (bits %x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestCutoffTraceCounters: kde.evaluate carries grid-cutoff's candidates
// (slots scanned) and terms (slots inside the support), and terms matches
// a direct count over every (pixel, point) pair.
func TestCutoffTraceCounters(t *testing.T) {
	pts := clusteredPoints(38, 3000)
	c := cols(pts)
	for _, kt := range []kernel.Type{kernel.Uniform, kernel.Triangular, kernel.Cosine} {
		ctx, root := obs.NewTrace(context.Background(), "test")
		opt := testOpts(kt, 4)
		opt.Ctx, opt.Workers = ctx, 2
		if _, err := Evaluate(c, GridCutoff, opt); err != nil {
			t.Fatal(err)
		}
		root.End()
		attrs := map[string]string{}
		for _, sp := range root.Tree().Children {
			for _, a := range sp.Attrs {
				attrs[sp.Name+"."+a.Key] = a.Value
			}
		}
		b2 := opt.Kernel.Bandwidth() * opt.Kernel.Bandwidth()
		want := 0
		for iy := 0; iy < opt.Grid.NY; iy++ {
			for ix := 0; ix < opt.Grid.NX; ix++ {
				q := opt.Grid.Center(ix, iy)
				for _, p := range pts {
					if d2 := p.Dist2(q); d2 < b2 || kt == kernel.Uniform && d2 == b2 {
						want++
					}
				}
			}
		}
		terms, _ := strconv.Atoi(attrs["kde.evaluate.terms"])
		candidates, _ := strconv.Atoi(attrs["kde.evaluate.candidates"])
		if terms != want {
			t.Errorf("%v: kde.evaluate terms=%q, want %d", kt, attrs["kde.evaluate.terms"], want)
		}
		if candidates < terms {
			t.Errorf("%v: kde.evaluate candidates=%q below terms %d", kt, attrs["kde.evaluate.candidates"], terms)
		}
		t.Logf("%v: %d candidates, %d terms, pass rate %.2f", kt, candidates, terms, float64(terms)/float64(candidates))
	}
}

// BenchmarkGridCutoff times grid-cutoff for every finite kernel on one
// core: n = 100 000 clustered points, a 96² raster, b = 1, 2 and 4.
func BenchmarkGridCutoff(b *testing.B) {
	c := cols(clusteredPoints(42, 100000))
	for _, kt := range finiteKernels {
		for _, bw := range []float64{1, 2, 4} {
			b.Run(fmt.Sprintf("%v/b=%g", kt, bw), func(b *testing.B) {
				opt := testOpts(kt, bw)
				opt.Grid = geom.NewPixelGrid(box, 96, 96)
				opt.Workers = 1
				for i := 0; i < b.N; i++ {
					if _, err := Evaluate(c, GridCutoff, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
