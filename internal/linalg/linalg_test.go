package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// solve runs SolveInPlace on copies of a and b.
func solve(a *Matrix, b []float64) ([]float64, error) {
	x := append([]float64(nil), b...)
	return x, SolveInPlace(a.Clone(), x)
}

func TestSolveIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	x, err := solve(a, []float64{4, -5, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, -5, 6}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x − y = 1  →  x=2, y=1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := solve(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

// Pivoting: a zero on the diagonal must not break the solve.
func TestSolveNeedsPivoting(t *testing.T) {
	// 0x + y = 3; x + y = 5 → x=2, y=3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	x, err := solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // rank 1
	if _, err := solve(a, []float64{1, 2}); err == nil {
		t.Error("singular system accepted")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if err := SolveInPlace(a, []float64{1, 2}); err == nil {
		t.Error("non-square accepted")
	}
	b := NewMatrix(2, 2)
	b.Set(0, 0, 1)
	b.Set(1, 1, 1)
	if err := SolveInPlace(b, []float64{1}); err == nil {
		t.Error("wrong rhs length accepted")
	}
}

// Property: for random well-conditioned systems, A·x ≈ b.
func TestSolveResidual(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a.At(i, j) * x[j]
			}
			if math.Abs(sum-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %v at row %d", trial, sum-b[i], i)
			}
		}
	}
}
