package kde

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/raster"
)

// This file tests the evaluator pipeline as a whole: the capability matrix
// is generated from the method table itself, so a row added to the table
// is exercised on every cell without anyone remembering to write its test.

// matrixCell is one request shape a method either honours or refuses.
type matrixCell struct {
	name     string
	kernel   kernel.Type
	windowed bool
	// want reads, from the row's declared capabilities, whether the row
	// supports the cell and which capability the refusal must name.
	want func(r *methodRow) (ok bool, lacks Capability)
}

var matrixCells = []matrixCell{
	{name: "windowed", kernel: kernel.Quartic, windowed: true,
		want: func(r *methodRow) (bool, Capability) { return r.window, CapWindow }},
	{name: "gaussian", kernel: kernel.Gaussian,
		want: func(r *methodRow) (bool, Capability) {
			if r.kernels == polynomialD2 {
				return false, CapNonPolynomialKernel
			}
			return r.kernels == anyKernel, CapInfiniteKernel
		}},
	{name: "triangular", kernel: kernel.Triangular,
		want: func(r *methodRow) (bool, Capability) { return r.kernels != polynomialD2, CapNonPolynomialKernel }},
	{name: "quartic", kernel: kernel.Quartic,
		want: func(r *methodRow) (bool, Capability) { return true, "" }},
}

const matrixEps, matrixDelta = 0.2, 0.1

// assertMatches checks got against the direct-sum float64 reference with
// the tolerance the row's contract states: Float64bits for the naive row
// (the cells soa_test.go and window_test.go pin), 1e-9 of the peak for the
// other exact rows (sweepTol for the sweep line), and the stated ε for the
// approximate ones. scale is the normalising factor both rasters carry (1
// for raw sums): the contracts are stated on raw sums, so a normalised
// raster is held to the contract times that factor.
func assertMatches(t *testing.T, r *methodRow, got, want *raster.Grid, k kernel.Kernel, n int, scale float64) {
	t.Helper()
	if got.Spec.NX != want.Spec.NX || got.Spec.NY != want.Spec.NY {
		t.Fatalf("raster is %dx%d, want %dx%d", got.Spec.NX, got.Spec.NY, want.Spec.NX, want.Spec.NY)
	}
	_, peak := want.MinMax()
	for i, w := range want.Values {
		g := got.Values[i]
		ok := true
		switch {
		case r.id == Naive:
			ok = math.Float64bits(g) == math.Float64bits(w)
		case r.id == SweepLine:
			ok = math.Abs(g-w) <= sweepTol(k)*(scale+peak)
		case r.exact:
			ok = math.Abs(g-w) <= 1e-9*(scale+peak)
		case r.id == BoundApprox: // Equation 6: (1−ε)F ≤ R ≤ (1+ε)F
			ok = g >= (1-matrixEps)*w-1e-9*scale && g <= (1+matrixEps)*w+1e-9*scale
		case r.id == Sampled: // additive ε·Kmax·n
			ok = math.Abs(g-w) <= matrixEps*k.Eval2(0)*float64(n)*scale
		default:
			t.Fatalf("method table row %v has no stated tolerance in this test", r.id)
		}
		if !ok {
			t.Fatalf("pixel %d = %v, reference %v (peak %v)", i, g, w, peak)
		}
	}
}

func TestCapabilityMatrix(t *testing.T) {
	pts := clusteredPoints(41, 600) // above Sampled's bound (115): it really samples
	win := geom.GridWindow{X0: 5, Y0: 3, NX: 11, NY: 9}
	for ri := range methods {
		r := &methods[ri]
		for _, cell := range matrixCells {
			t.Run(r.name+"/"+cell.name, func(t *testing.T) {
				opt := withApprox(testOpts(cell.kernel, 9), 3, matrixEps, matrixDelta)
				opt.Grid = geom.NewPixelGrid(box, 24, 20)
				ref := aosReference(pts, opt)
				if cell.windowed {
					opt.Window = win
					ref = window(ref, win)
				}
				got, err := Evaluate(cols(pts), r.id, opt)
				ok, lacks := cell.want(r)
				if !ok {
					var ue *UnsupportedError
					if !errors.As(err, &ue) {
						t.Fatalf("err = %v, want *UnsupportedError", err)
					}
					if ue.Method != r.id || ue.Capability != lacks {
						t.Fatalf("refusal names (%v, %q), want (%v, %q)", ue.Method, ue.Capability, r.id, lacks)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				assertMatches(t, r, got, ref, opt.Kernel, len(pts), 1)
			})
		}
	}
}

// TestAutoResolvesByKernelClass pins Auto's dispatch as "first exact row
// whose kernel requirement holds", and that the refusal of an Auto request
// names the method it resolved to.
func TestAutoResolvesByKernelClass(t *testing.T) {
	for kt, want := range map[kernel.Type]Method{
		kernel.Quartic:    SweepLine,
		kernel.Triangular: GridCutoff,
		kernel.Gaussian:   Naive,
	} {
		if got := lookup(Auto, kernel.MustNew(kt, 5)).id; got != want {
			t.Errorf("Auto with %v resolves to %v, want %v", kt, got, want)
		}
	}
	opt := testOpts(kernel.Quartic, 9)
	opt.Window = geom.GridWindow{X0: 1, Y0: 1, NX: 4, NY: 4}
	_, err := Evaluate(cols(clusteredPoints(42, 50)), Auto, opt)
	var ue *UnsupportedError
	if !errors.As(err, &ue) || ue.Method != SweepLine || ue.Capability != CapWindow {
		t.Errorf("windowed Auto/quartic: err = %v, want sweep-line refusing %q", err, CapWindow)
	}
	if _, err := Evaluate(cols(nil), Method(99), testOpts(kernel.Quartic, 9)); err == nil {
		t.Error("unknown method accepted")
	}
}

// gridDigest hashes the exact bit patterns of a raster.
func gridDigest(g *raster.Grid) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range g.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSampledSeedDigestPinned pins Sampled's output bits for a fixed seed:
// the triangular digests were recorded from the pre-pipeline Sampled(pts,
// opt, 9, 0.05, 0.01), so the columnar gather draws the same subset in the
// same order and rescales with the same single multiply. The quartic ones
// were re-recorded when the sweep line began bucketing points by raster row
// instead of sorting them by y, and taking exits before an origin shift
// (ISSUE 15): a row now meets its band, and sums it, in another order, which
// moves the low bits of its power sums and nothing else — the triangular
// digests, the same draw through grid-cutoff, did not move. (Kernels
// without transcendentals only, so the digests do not depend on the
// platform's exp implementation.)
func TestSampledSeedDigestPinned(t *testing.T) {
	pts := clusteredPoints(8, 20000)
	for _, tc := range []struct {
		kt        kernel.Type
		normalize bool
		want      string
	}{
		{kernel.Quartic, false, "7ea0703130b4c9b3"},    // sweep-line on the subset
		{kernel.Quartic, true, "713434bd583a18dc"},     // n/m folded into the normalisation multiply
		{kernel.Triangular, false, "5fa1d15e09197695"}, // grid-cutoff on the subset
		{kernel.Triangular, true, "73fc77db884e083d"},
	} {
		opt := withApprox(testOpts(tc.kt, 20), 9, 0.05, 0.01)
		opt.Normalize = tc.normalize
		g, err := Evaluate(cols(pts), Sampled, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := gridDigest(g); got != tc.want {
			t.Errorf("%v normalize=%v: digest %s, want %s", tc.kt, tc.normalize, got, tc.want)
		}
	}
}

// TestDegenerateInputs drives n = 0, n = 1 and all-coincident inputs
// through the one driver for every method: the result is the zero raster /
// the (k×) single-kernel raster or a typed refusal, never a panic, and
// bit-identical for Workers 1 and 4.
func TestDegenerateInputs(t *testing.T) {
	p := geom.Point{X: 41.3, Y: 37.9}
	coincident := make([]geom.Point, 50)
	for i := range coincident {
		coincident[i] = p
	}
	inputs := []struct {
		name string
		pts  []geom.Point
	}{
		{"n=0", nil},
		{"n=1", []geom.Point{p}},
		{"coincident", coincident},
	}
	ids := []Method{Auto}
	for _, r := range methods {
		ids = append(ids, r.id)
	}
	for _, m := range ids {
		for _, kt := range []kernel.Type{kernel.Quartic, kernel.Gaussian} {
			for _, in := range inputs {
				t.Run(m.String()+"/"+kt.String()+"/"+in.name, func(t *testing.T) {
					opt := withApprox(testOpts(kt, 12), 1, 0.05, 0.05)
					serial, err := Evaluate(cols(in.pts), m, opt)
					if err != nil {
						var ue *UnsupportedError
						if !errors.As(err, &ue) {
							t.Fatalf("err = %v, want a raster or *UnsupportedError", err)
						}
						return
					}
					opt.Workers = 4
					par, err := Evaluate(cols(in.pts), m, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, par, serial, "workers 4 vs 1")
					k := float64(len(in.pts))
					for iy := 0; iy < opt.Grid.NY; iy++ {
						for ix := 0; ix < opt.Grid.NX; ix++ {
							want := k * opt.Kernel.Eval2(opt.Grid.Center(ix, iy).Dist2(p))
							got := serial.At(ix, iy)
							tol := 1e-9 * (1 + want)
							if m == BoundApprox {
								tol += opt.Epsilon * want
							}
							if math.Abs(got-want) > tol {
								t.Fatalf("pixel (%d,%d) = %v, want %v", ix, iy, got, want)
							}
						}
					}
				})
			}
		}
	}
}
