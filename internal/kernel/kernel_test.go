package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, typ := range All() {
		got, err := Parse(typ.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("Parse(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse(bogus) should fail")
	}
	if s := Type(-1).String(); s != "kernel.Type(-1)" {
		t.Errorf("invalid type String = %q", s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Gaussian, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(Gaussian, -1); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := New(Gaussian, math.NaN()); err == nil {
		t.Error("NaN bandwidth accepted")
	}
	if _, err := New(Gaussian, math.Inf(1)); err == nil {
		t.Error("infinite bandwidth accepted")
	}
	if _, err := New(Type(99), 1); err == nil {
		t.Error("unknown type accepted")
	}
	// b² underflows: 1/b² would be +Inf, and the Gaussian at distance 0
	// exp(−0·Inf) = NaN.
	for _, b := range []float64{1e-200, 1e-160, math.SmallestNonzeroFloat64} {
		_, err := New(Gaussian, b)
		want := fmt.Sprintf("kernel: bandwidth %g is too small: 1/b² overflows", b)
		if err == nil || err.Error() != want {
			t.Errorf("New(Gaussian, %g) = %v, want error %q", b, err, want)
		}
	}
	// The smallest accepted bandwidths keep K(0) = 1.
	for _, b := range []float64{1e-154, 1.5e-154} {
		k, err := New(Gaussian, b)
		if err != nil {
			t.Fatalf("New(Gaussian, %g): %v", b, err)
		}
		if v := k.Eval2(0); v != 1 {
			t.Errorf("b=%g: K(0) = %v, want 1", b, v)
		}
	}
	k := MustNew(Quartic, 2.5)
	if k.Type() != Quartic || k.Bandwidth() != 2.5 {
		t.Errorf("accessors: %v %v", k.Type(), k.Bandwidth())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad args should panic")
		}
	}()
	MustNew(Gaussian, -1)
}

// Table 2 of the paper, spot values at d = 0, b/2, b, 2b.
func TestTable2Values(t *testing.T) {
	const b = 2.0
	cases := []struct {
		typ                    Type
		at0, atHalf, atB, at2B float64
	}{
		{Uniform, 0.5, 0.5, 0.5, 0},
		{Epanechnikov, 1, 0.75, 0, 0},
		{Quartic, 1, 0.5625, 0, 0},
		{Gaussian, 1, math.Exp(-0.25), math.Exp(-1), math.Exp(-4)},
		{Triangular, 1, 0.5, 0, 0},
		{Triweight, 1, 0.421875, 0, 0},
		{Cosine, 1, math.Cos(math.Pi / 4), 0, 0},
		{Exponential, 1, math.Exp(-0.5), math.Exp(-1), math.Exp(-2)},
	}
	for _, c := range cases {
		k := MustNew(c.typ, b)
		checks := []struct {
			d, want float64
		}{{0, c.at0}, {b / 2, c.atHalf}, {b, c.atB}, {2 * b, c.at2B}}
		for _, ch := range checks {
			got := k.Eval(ch.d)
			if math.Abs(got-ch.want) > 1e-12 {
				t.Errorf("%v.Eval(%v) = %v, want %v", c.typ, ch.d, got, ch.want)
			}
		}
	}
}

// Uniform's boundary is inclusive per Table 2 (dist <= b); the polynomial
// kernels vanish at the boundary so inclusivity is immaterial there.
func TestUniformBoundaryInclusive(t *testing.T) {
	k := MustNew(Uniform, 3)
	if got := k.Eval(3); got != 1.0/3 {
		t.Errorf("Eval(b) = %v, want 1/b", got)
	}
	if got := k.Eval(3.0000001); got != 0 {
		t.Errorf("Eval(b+) = %v, want 0", got)
	}
}

// Properties shared by all kernels: non-negative, maximal at 0,
// non-increasing in distance, and Eval2(d²)==Eval(d).
func TestKernelProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, typ := range All() {
		k := MustNew(typ, 1.5)
		peak := k.Eval(0)
		if peak <= 0 {
			t.Errorf("%v: peak %v <= 0", typ, peak)
		}
		prev := peak
		for i := 0; i < 400; i++ {
			d := float64(i) * 0.02 // 0 .. 8, past the support
			v := k.Eval(d)
			if v < 0 {
				t.Fatalf("%v: Eval(%v) = %v < 0", typ, d, v)
			}
			if v > prev+1e-12 {
				t.Fatalf("%v: not monotone at d=%v: %v > %v", typ, d, v, prev)
			}
			prev = v
		}
		for i := 0; i < 100; i++ {
			d := r.Float64() * 4
			if math.Abs(k.Eval(d)-k.Eval2(d*d)) > 1e-12 {
				t.Fatalf("%v: Eval/Eval2 disagree at %v", typ, d)
			}
		}
	}
}

func TestFiniteSupport(t *testing.T) {
	for _, typ := range All() {
		k := MustNew(typ, 2)
		want := typ != Gaussian && typ != Exponential
		if got := k.FiniteSupport(); got != want {
			t.Errorf("%v.FiniteSupport = %v, want %v", typ, got, want)
		}
		r := k.SupportRadius()
		if want && r != 2 {
			t.Errorf("%v.SupportRadius = %v, want b", typ, r)
		}
		if !want && r <= 2 {
			t.Errorf("%v.SupportRadius = %v, want > b", typ, r)
		}
		// Beyond the support radius the kernel is (near) zero.
		if v := k.Eval(r * 1.0000001); v > 1e-12*k.Eval(0) {
			t.Errorf("%v: Eval beyond support = %v", typ, v)
		}
	}
}

// TestConvexInD2 samples the chord inequality K(λx₀+(1−λ)x₁) ≤
// λK(x₀)+(1−λ)K(x₁) on a grid of x = d² pairs spanning the support edge:
// it must hold for every kernel that claims convexity, and uniform must
// violate it somewhere.
func TestConvexInD2(t *testing.T) {
	const b = 2.0
	for _, typ := range All() {
		k := MustNew(typ, b)
		worst := 0.0 // largest K(mid) − chord seen
		for i := 0; i <= 60; i++ {
			for j := i + 1; j <= 60; j++ {
				x0, x1 := float64(i)*b*b/20, float64(j)*b*b/20 // x up to 3b²
				for _, lam := range []float64{0.1, 0.5, 0.9} {
					mid := k.Eval2(lam*x0 + (1-lam)*x1)
					chord := lam*k.Eval2(x0) + (1-lam)*k.Eval2(x1)
					worst = math.Max(worst, mid-chord)
				}
			}
		}
		if k.ConvexInD2() && worst > 1e-12 {
			t.Errorf("%v claims convexity in d² but exceeds a chord by %g", typ, worst)
		}
		if !k.ConvexInD2() && worst <= 0 {
			t.Errorf("%v denies convexity in d² but no chord is violated", typ)
		}
	}
}

// NormConst is validated by numerically integrating w·K over the plane in
// polar coordinates: 2π ∫ w·k(r)·r dr should be 1.
func TestNormConstIntegratesToOne(t *testing.T) {
	for _, typ := range All() {
		for _, b := range []float64{0.5, 1, 3} {
			k := MustNew(typ, b)
			w := k.NormConst()
			rMax := k.SupportRadius() * 1.5
			const steps = 400000
			dr := rMax / steps
			sum := 0.0
			for i := 0; i < steps; i++ {
				r := (float64(i) + 0.5) * dr
				sum += k.Eval(r) * r * dr
			}
			integral := 2 * math.Pi * w * sum
			if math.Abs(integral-1) > 1e-3 {
				t.Errorf("%v b=%v: ∫w·K = %v, want 1", typ, b, integral)
			}
		}
	}
}
