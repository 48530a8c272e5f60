package stat

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
)

func TestPermutationTest(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// The statistic is the first element: under shuffling it is uniform on
	// the values, so the summary is checkable by hand.
	first := func(perm []float64) float64 { return perm[0] }

	mean, std, z, p, err := PermutationTest(values, 8, PermOptions{}, first)
	if mean != 0 || std != 0 || z != 0 || p != 0 || err != nil {
		t.Errorf("Perms = 0: got %v %v %v %v %v, want zeros", mean, std, z, p, err)
	}

	opt := PermOptions{Perms: 199, Seed: 7, Workers: 1}
	mean, std, z, p, err = PermutationTest(values, 8, opt, first)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-4.5) > 0.5 || math.Abs(std-math.Sqrt(5.25)) > 0.5 {
		t.Errorf("mean, std = %v, %v; want near 4.5, %v", mean, std, math.Sqrt(5.25))
	}
	if z != (8-mean)/std {
		t.Errorf("z = %v, want (obs − mean)/std = %v", z, (8-mean)/std)
	}
	if p <= 0 || p > 1 {
		t.Errorf("p = %v outside (0, 1]", p)
	}
	for _, workers := range []int{2, 3, -1} {
		opt.Workers = workers
		m2, s2, z2, p2, err := PermutationTest(values, 8, opt, first)
		if err != nil || m2 != mean || s2 != std || z2 != z || p2 != p {
			t.Errorf("workers=%d: %v %v %v %v %v differs from serial %v %v %v %v", workers, m2, s2, z2, p2, err, mean, std, z, p)
		}
	}
	for i, v := range values {
		if v != float64(i+1) {
			t.Fatalf("values modified: %v", values)
		}
	}

	// A constant statistic has zero spread: z stays 0, every draw ties.
	_, std, z, p, _ = PermutationTest(values, 3, opt, func([]float64) float64 { return 3 })
	if std != 0 || z != 0 || p != 1 {
		t.Errorf("constant statistic: std %v z %v p %v, want 0 0 1", std, z, p)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Ctx = ctx
	if _, _, _, _, err := PermutationTest(values, 8, opt, first); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// PermutationSamples returns the draws PermutationTest summarises, in
// permutation order, for every worker count; a non-positive count draws
// none.
func TestPermutationSamples(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	first := func(perm []float64) float64 { return perm[0] }
	for _, perms := range []int{0, -3} {
		if got, err := PermutationSamples(values, PermOptions{Perms: perms}, first); len(got) != 0 || err != nil {
			t.Errorf("Perms = %d: %v, %v; want no samples", perms, got, err)
		}
	}
	opt := PermOptions{Perms: 99, Seed: 3, Workers: 1}
	serial, err := PermutationSamples(values, opt, first)
	if err != nil || len(serial) != 99 {
		t.Fatalf("%d samples, %v", len(serial), err)
	}
	mean, std := MeanStd(serial)
	if m, s, _, _, _ := PermutationTest(values, 8, opt, first); m != mean || s != std {
		t.Errorf("PermutationTest mean, std = %v, %v; samples give %v, %v", m, s, mean, std)
	}
	for _, workers := range []int{2, -1} {
		opt.Workers = workers
		if got, _ := PermutationSamples(values, opt, first); !slices.Equal(got, serial) {
			t.Errorf("workers=%d: samples differ from serial", workers)
		}
	}
}
