// Package kernel implements the kernel functions of Table 2 in the paper
// (uniform, Epanechnikov, quartic, Gaussian) plus the additional kernels the
// paper names as future work in §2.4 (triangular, cosine, exponential,
// triweight), all parameterised by a bandwidth b.
//
// Kernels are evaluated on squared distance: every caller in this
// repository already has dist² available (from index pruning bounds or
// coordinate deltas), and finite-support kernels can then be evaluated with
// no square root at all.
//
// The paper's Table 2 writes kernels unnormalised (the normalisation
// constant w of Equation 1 is applied outside). This package follows that
// convention: Eval returns the raw kernel value; NormConst returns the
// constant that makes the kernel integrate to 1 over the plane, for callers
// that want true density estimates.
package kernel

import (
	"fmt"
	"math"
)

// Type enumerates the supported kernel functions.
type Type int

const (
	// Uniform is the flat disc kernel: 1/b within distance b, else 0.
	Uniform Type = iota
	// Triangular decays linearly: 1 - dist/b within b.
	Triangular
	// Epanechnikov is 1 - dist²/b² within b (Table 2).
	Epanechnikov
	// Quartic is (1 - dist²/b²)² within b (Table 2).
	Quartic
	// Triweight is (1 - dist²/b²)³ within b.
	Triweight
	// Gaussian is exp(-dist²/b²) (Table 2; infinite support).
	Gaussian
	// Cosine is cos(π·dist/(2b)) within b.
	Cosine
	// Exponential is exp(-dist/b) (infinite support).
	Exponential

	numTypes int = iota
)

var typeNames = [...]string{
	Uniform:      "uniform",
	Triangular:   "triangular",
	Epanechnikov: "epanechnikov",
	Quartic:      "quartic",
	Triweight:    "triweight",
	Gaussian:     "gaussian",
	Cosine:       "cosine",
	Exponential:  "exponential",
}

// String returns the lowercase kernel name used by CLIs and CSV headers.
func (t Type) String() string {
	if t < 0 || int(t) >= numTypes {
		return fmt.Sprintf("kernel.Type(%d)", int(t))
	}
	return typeNames[t]
}

// Parse returns the kernel type named by s (as produced by String).
func Parse(s string) (Type, error) {
	for i, name := range typeNames {
		if name == s {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("kernel: unknown kernel %q", s)
}

// All returns every supported kernel type, in declaration order.
func All() []Type {
	ts := make([]Type, numTypes)
	for i := range ts {
		ts[i] = Type(i)
	}
	return ts
}

// Kernel is a bandwidth-bound kernel function K(q, p) = k(dist(q, p)).
// The zero value is not usable; construct with New.
type Kernel struct {
	typ   Type
	b     float64 // bandwidth
	invB  float64 // 1/b
	b2    float64 // b²
	invB2 float64 // 1/b²
}

// New returns a kernel of the given type with bandwidth b > 0.
func New(typ Type, b float64) (Kernel, error) {
	if typ < 0 || int(typ) >= numTypes {
		return Kernel{}, fmt.Errorf("kernel: unknown kernel type %d", int(typ))
	}
	if !(b > 0) || math.IsInf(b, 1) {
		return Kernel{}, fmt.Errorf("kernel: bandwidth must be positive and finite, got %g", b)
	}
	if math.IsInf(1/(b*b), 1) {
		// b² underflows: the Gaussian at a coincident point would be
		// exp(−0·Inf) = NaN where every finite-support kernel gives K(0).
		return Kernel{}, fmt.Errorf("kernel: bandwidth %g is too small: 1/b² overflows", b)
	}
	return Kernel{typ: typ, b: b, invB: 1 / b, b2: b * b, invB2: 1 / (b * b)}, nil
}

// MustNew is New that panics on error, for tests and internal constants.
func MustNew(typ Type, b float64) Kernel {
	k, err := New(typ, b)
	if err != nil {
		panic(err)
	}
	return k
}

// Type returns the kernel's type.
func (k Kernel) Type() Type { return k.typ }

// Bandwidth returns the kernel's bandwidth b.
func (k Kernel) Bandwidth() float64 { return k.b }

// FiniteSupport reports whether the kernel is exactly zero beyond its
// bandwidth. Finite-support kernels admit cutoff- and sweep-line-based
// exact algorithms (SLAM family); infinite-support kernels (Gaussian,
// exponential) require approximation for sub-O(XYn) evaluation — the gap
// the paper highlights in §2.4.
func (k Kernel) FiniteSupport() bool {
	switch k.typ {
	case Gaussian, Exponential:
		return false
	}
	return true
}

// ConvexInD2 reports whether the kernel value is a convex function of the
// squared distance x = d² on [0, ∞). Bound-based KDE relies on it: over
// any interval of x a convex K lies below its chord, and the mean of K over
// points is at least K at their mean x (Jensen). Every kernel but uniform
// is convex in x, by a proof rather than a measurement:
//
//   - Epanechnikov max(0, 1 − x/b²) and triangular max(0, 1 − √x/b) are
//     maxima of convex functions (−√x is convex).
//   - Quartic and triweight are u² and u³ of the Epanechnikov u ≥ 0, and
//     t ↦ tᵏ is convex and nondecreasing on t ≥ 0.
//   - Gaussian exp(−x/b²) and exponential exp(−√x/b) are exp of a convex
//     function.
//   - Cosine cos(a√x), a = π/2b, has second derivative
//     a·(sin t − t·cos t)/(4s³) ≥ 0 for s = √x, t = a·s ∈ (0, π/2]
//     (tan t ≥ t), and its slope rises to 0 where it meets the zero tail.
//
// Uniform is a downward step at x = b², which no convex function takes.
func (k Kernel) ConvexInD2() bool { return k.typ != Uniform }

// SupportRadius returns the distance beyond which the kernel's value is
// negligible: exactly b for finite-support kernels, and the distance at
// which the kernel decays below tail=1e-12 of its peak for infinite-support
// ones (used only by callers that accept that truncation explicitly).
func (k Kernel) SupportRadius() float64 {
	switch k.typ {
	case Gaussian:
		// exp(-d²/b²) = 1e-12  =>  d = b·sqrt(12·ln10)
		return k.b * math.Sqrt(12*math.Ln10)
	case Exponential:
		// exp(-d/b) = 1e-12  =>  d = 12·ln10·b
		return k.b * 12 * math.Ln10
	default:
		return k.b
	}
}

// Eval2 returns the kernel value at squared distance d2 >= 0.
func (k Kernel) Eval2(d2 float64) float64 {
	switch k.typ {
	case Uniform:
		if d2 <= k.b2 {
			return k.invB
		}
		return 0
	case Triangular:
		if d2 >= k.b2 {
			return 0
		}
		return 1 - math.Sqrt(d2)*k.invB
	case Epanechnikov:
		if d2 >= k.b2 {
			return 0
		}
		return 1 - d2*k.invB2
	case Quartic:
		if d2 >= k.b2 {
			return 0
		}
		u := 1 - d2*k.invB2
		return u * u
	case Triweight:
		if d2 >= k.b2 {
			return 0
		}
		u := 1 - d2*k.invB2
		return u * u * u
	case Gaussian:
		return math.Exp(-d2 * k.invB2)
	case Cosine:
		if d2 >= k.b2 {
			return 0
		}
		return math.Cos(math.Pi / 2 * math.Sqrt(d2) * k.invB)
	case Exponential:
		return math.Exp(-math.Sqrt(d2) * k.invB)
	}
	return 0
}

// Eval returns the kernel value at distance d >= 0.
func (k Kernel) Eval(d float64) float64 { return k.Eval2(d * d) }

// NormConst returns the constant w such that w·∫∫K(q,p)dq = 1 over the
// plane, i.e. the normalisation constant of Equation 1 for a single point.
// Derivations use polar coordinates: ∫∫k(|x|)dx = 2π∫₀^∞ k(r)·r dr.
func (k Kernel) NormConst() float64 {
	b := k.b
	switch k.typ {
	case Uniform:
		// ∫ = 2π·(1/b)·b²/2 = πb
		return 1 / (math.Pi * b)
	case Triangular:
		// 2π∫₀^b (1-r/b) r dr = 2π(b²/2 - b²/3) = πb²/3
		return 3 / (math.Pi * b * b)
	case Epanechnikov:
		// 2π∫₀^b (1-r²/b²) r dr = 2π(b²/2 - b²/4) = πb²/2
		return 2 / (math.Pi * b * b)
	case Quartic:
		// 2π∫₀^b (1-r²/b²)² r dr = 2π·b²/6 = πb²/3
		return 3 / (math.Pi * b * b)
	case Triweight:
		// 2π∫₀^b (1-r²/b²)³ r dr = 2π·b²/8 = πb²/4
		return 4 / (math.Pi * b * b)
	case Gaussian:
		// 2π∫₀^∞ e^{-r²/b²} r dr = πb²
		return 1 / (math.Pi * b * b)
	case Cosine:
		// 2π∫₀^b cos(πr/2b) r dr = 2πb²·(2/π)·(1 - 2/π)  [by parts]
		// ∫₀^b cos(πr/2b) r dr = b²(4/π²)(π/2 - 1)
		return 1 / (2 * math.Pi * b * b * (4 / (math.Pi * math.Pi)) * (math.Pi/2 - 1))
	case Exponential:
		// 2π∫₀^∞ e^{-r/b} r dr = 2πb²
		return 1 / (2 * math.Pi * b * b)
	}
	return 1
}
