package kde

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// This file pins down the absorbed-term rule of the Gaussian and
// exponential loops (absorbThreshold): skipping exp for terms the running
// sum absorbs must leave every bit of every sum as the plain loop leaves
// it. The two facts the proof rests on are tested on this platform's
// math.Exp, the loops against the plain loop and the array-of-structs
// reference. Nothing here pins a digest: exp's low bits are
// platform-specific (see TestSampledSeedDigestPinned).

// plainExpEval is the Gaussian / exponential chunk loop without the
// absorbed-term test: one exp per (pixel, point) pair, the loop the
// absorbed one must reproduce bit for bit.
func plainExpEval(k kernel.Kernel) chunkEval {
	b := k.Bandwidth()
	invB := 1 / b
	invB2 := 1 / (b * b)
	if k.Type() == kernel.Exponential {
		return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
			for i, x := range xs {
				dx := x - qx
				dy := ys[i] - qy
				d2 := dx*dx + dy*dy
				sum += math.Exp(-math.Sqrt(d2) * invB)
			}
			return sum, len(xs)
		}
	}
	return func(sum, qx, qy float64, xs, ys []float64) (float64, int) {
		for i, x := range xs {
			dx := x - qx
			dy := ys[i] - qy
			d2 := dx*dx + dy*dy
			sum += math.Exp(-d2 * invB2)
		}
		return sum, len(xs)
	}
}

// TestExpUnderflowIsExactZero: math.Exp(t) is exactly +0 for every t below
// expUnderflow, swept densely past the cut-off and geometrically down to
// −1e308, −MaxFloat64 and −Inf. absorbThreshold's floor rests on it.
func TestExpUnderflowIsExactZero(t *testing.T) {
	check := func(x float64) {
		if v := math.Exp(x); math.Float64bits(v) != 0 {
			t.Fatalf("math.Exp(%v) = %v (bits %x), want +0", x, v, math.Float64bits(v))
		}
	}
	below := math.Nextafter(expUnderflow, math.Inf(-1))
	check(below)
	for x := below; x > -760; x -= 1e-4 {
		check(x)
	}
	for x := -760.0; x > -1e308; x *= 1.001 {
		check(x)
		check(math.Nextafter(x, 0))
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 100000; i++ {
		check(expUnderflow - math.Exp(r.Float64()*710))
	}
	for _, x := range []float64{-1e308, -math.MaxFloat64, math.Inf(-1)} {
		check(x)
	}
}

// absorbSums returns the sums the absorption facts are checked at: every
// power of two from 2⁻¹⁰²² to 2¹⁰²³ and the float just below each, both
// signs, and random values in random binades — every normal binade.
func absorbSums(r *rand.Rand) []float64 {
	var ss []float64
	for e := -1022; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		ss = append(ss, p, -p, math.Nextafter(p, 0), -math.Nextafter(p, 0))
	}
	for i := 0; i < 20000; i++ {
		s := math.Ldexp(1+r.Float64(), -1022+r.Intn(2046))
		if i%2 == 1 {
			s = -s
		}
		ss = append(ss, s)
	}
	return ss
}

// TestAbsorbedTermLeavesSum: for 2^E ≤ |S| < 2^(E+1), every |τ| < 2^(E−54)
// gives S + τ == S — at τ just below the bound, both signs, and at random.
func TestAbsorbedTermLeavesSum(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, s := range absorbSums(r) {
		_, e := math.Frexp(s) // |s| = f·2^e, f ∈ [½, 1): E = e − 1
		tauMax := math.Nextafter(math.Ldexp(1, e-1-54), 0)
		for _, tau := range []float64{tauMax, -tauMax, r.Float64() * tauMax, -r.Float64() * tauMax} {
			if got := s + tau; math.Float64bits(got) != math.Float64bits(s) {
				t.Fatalf("S = %v (E = %d), τ = %v: S+τ = %v, want S", s, e-1, tau, got)
			}
		}
	}
}

// TestAbsorbThresholdBound: just below absorbThreshold's thr, and further
// below into exp's subnormal range, exp(t) < 2^(E−54), so each skipped term
// is one TestAbsorbedTermLeavesSum absorbs. Where thr is expUnderflow, exp
// is exactly 0 below it instead.
func TestAbsorbThresholdBound(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, s := range absorbSums(r) {
		_, e := math.Frexp(s)
		bound := math.Ldexp(1, e-1-54)
		thr := absorbThreshold(math.Float64bits(s) >> 52)
		for _, x := range []float64{math.Nextafter(thr, math.Inf(-1)), thr - 1e-9, thr - 0.5, thr - 3, thr - 40} {
			v := math.Exp(x)
			if thr == expUnderflow {
				if v != 0 {
					t.Fatalf("S = %v: thr is expUnderflow but exp(%v) = %v", s, x, v)
				}
				continue
			}
			if !(v < bound) {
				t.Fatalf("S = %v: thr = %v, exp(%v) = %v ≥ 2^(E−54) = %v", s, thr, x, v, bound)
			}
		}
	}
	// Zero, subnormal and tiny sums, and sums that are not finite, skip only
	// the exact zeros below expUnderflow.
	for _, s := range []float64{0, math.SmallestNonzeroFloat64, -0x1p-1030, 0x1p-1000, math.Inf(1), math.Inf(-1), math.NaN()} {
		if thr := absorbThreshold(math.Float64bits(s) >> 52); thr != expUnderflow {
			t.Errorf("S = %v: thr = %v, want %v", s, thr, expUnderflow)
		}
	}
}

// absorbCase is one dataset of the absorbed-loop differential.
type absorbCase struct {
	name string
	pts  []geom.Point
}

// absorbCases returns the hostile inputs: random point order over more
// than five chunks, coincident points (on a pixel centre, so d = 0), and
// UTM-sized offsets.
func absorbCases() []absorbCase {
	r := rand.New(rand.NewSource(32))
	shuffled := clusteredPoints(33, 5*dataset.ChunkSize+123)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	centre := geom.NewPixelGrid(box, 6, 5).Center(2, 3)
	coincident := clusteredPoints(34, 600)
	for i := 0; i < len(coincident); i += 2 {
		coincident[i] = centre
	}

	utm := clusteredPoints(35, 3000)
	for i := range utm {
		utm[i].X += 5e5
		utm[i].Y += 4e6
	}
	return []absorbCase{{"shuffled", shuffled}, {"coincident", coincident}, {"utm", utm}}
}

// absorbGrids returns a raster over the data and one stretching away from
// it, far enough that the farthest pixels' sums are tiny, subnormal or
// exactly 0: exp's argument reaches about −760 there.
func absorbGrids(data geom.BBox, k kernel.Kernel) []geom.PixelGrid {
	reach := k.Bandwidth() * math.Sqrt(760)
	if k.Type() == kernel.Exponential {
		reach = k.Bandwidth() * 760
	}
	far := geom.BBox{MinX: data.MaxX, MinY: data.MinY, MaxX: data.MaxX + 1.1*reach, MaxY: data.MaxY}
	return []geom.PixelGrid{geom.NewPixelGrid(data, 6, 5), geom.NewPixelGrid(far, 11, 2)}
}

// TestAbsorbedBitIdentityVsAoSReference holds the Gaussian and exponential
// naive loops, which skip absorbed terms, to the array-of-structs reference,
// which evaluates every pair, via Float64bits, at Workers 1 and 4: five
// bandwidths (extent/1000 to 10×extent) × the hostile datasets of
// absorbCases, each on a raster over the data and one running off to
// pixels whose sums are tiny, subnormal or 0.
func TestAbsorbedBitIdentityVsAoSReference(t *testing.T) {
	for _, dc := range absorbCases() {
		c := dataset.MakeColumns(dc.pts)
		data := c.Chunks[0].BBox
		for _, ch := range c.Chunks {
			data = data.Union(ch.BBox)
		}
		extent := max(data.Width(), data.Height())
		for _, kt := range []kernel.Type{kernel.Gaussian, kernel.Exponential} {
			for _, b := range []float64{extent / 1000, extent / 100, extent / 25, extent / 10, 10 * extent} {
				opt := Options{Kernel: kernel.MustNew(kt, b)}
				for gi, g := range absorbGrids(data, opt.Kernel) {
					opt.Grid = g
					want := aosReference(dc.pts, opt)
					for _, workers := range []int{1, 4} {
						opt.Workers = workers
						got, err := Evaluate(c, Naive, opt)
						if err != nil {
							t.Fatal(err)
						}
						assertBitIdentical(t, got, want, fmt.Sprintf("%s/%v/b=%g/grid%d/workers=%d", dc.name, kt, b, gi, workers))
					}
				}
			}
		}
	}
}

// FuzzChunkEvalAbsorbed holds the absorbed Gaussian / exponential loops to
// plainExpEval on fuzzer-chosen bandwidths, query points and point clouds
// with coincident points, the sum carried across a fuzzer-chosen segment
// boundary as the chunked callers carry it.
func FuzzChunkEvalAbsorbed(f *testing.F) {
	f.Add(int64(1), uint16(500), 1.0, 0.0, 0.0, uint8(0), uint16(200))
	f.Add(int64(2), uint16(1500), 0.05, 3.0, -2.0, uint8(1), uint16(700))
	f.Add(int64(3), uint16(800), 9.0, 40.0, 40.0, uint8(2), uint16(1))
	f.Add(int64(4), uint16(800), 0.3, 1e3, 0.0, uint8(3), uint16(400))
	f.Add(int64(5), uint16(300), 2.0, 0.5, 0.5, uint8(5), uint16(100))
	f.Add(int64(6), uint16(300), 30.0, 5e5, 4e6, uint8(6), uint16(150))
	f.Add(int64(7), uint16(300), 1e-150, 0.0, 0.0, uint8(0), uint16(0))
	f.Add(int64(8), uint16(300), 1.0, math.NaN(), 0.0, uint8(2), uint16(50))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, b, qx, qy float64, kind uint8, split uint16) {
		typ := kernel.Gaussian
		if kind&1 == 1 {
			typ = kernel.Exponential
		}
		k, err := kernel.New(typ, b)
		if err != nil {
			return
		}
		r := rand.New(rand.NewSource(seed))
		m := int(n % 2048)
		xs, ys := make([]float64, m), make([]float64, m)
		for i := range xs {
			if i > 0 && r.Intn(4) == 0 { // coincident with the previous point
				xs[i], ys[i] = xs[i-1], ys[i-1]
			} else {
				xs[i], ys[i] = r.NormFloat64()*10, r.NormFloat64()*10
			}
		}
		cut := int(split) % (m + 1)
		fold := func(eval chunkEval) float64 {
			sum, _ := eval(0, qx, qy, xs[:cut], ys[:cut])
			sum, _ = eval(sum, qx, qy, xs[cut:], ys[cut:])
			return sum
		}
		got, want := fold(chunkEvalFor(k)), fold(plainExpEval(k))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v b=%v q=(%v,%v) n=%d cut=%d: absorbed loop %v (bits %x), plain loop %v (bits %x)",
				typ, b, qx, qy, m, cut, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// BenchmarkNaiveGaussian times the exact Gaussian baseline on one core:
// n = 100 000 clustered points, a 12² raster. At b = 30 every point lies
// within 5b of every pixel, so the running sums absorb no term and the
// cell measures what the absorbed-term test costs when it never pays.
func BenchmarkNaiveGaussian(b *testing.B) {
	c := cols(clusteredPoints(42, 100000))
	for _, bw := range []float64{1, 2, 4, 30} {
		b.Run(fmt.Sprintf("b=%g", bw), func(b *testing.B) {
			opt := testOpts(kernel.Gaussian, bw)
			opt.Grid = geom.NewPixelGrid(box, 12, 12)
			opt.Workers = 1
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(c, Naive, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
