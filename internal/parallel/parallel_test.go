package parallel

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) = %d, want 1", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
	if got := Workers(-1); got < 1 {
		t.Errorf("Workers(-1) = %d, want >= 1", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, w := range []int{0, 1, 3, 8, 200} {
			hits := make([]int32, n)
			For(n, w, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForRangeCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, w := range []int{1, 4, 16} {
			hits := make([]int32, n)
			ForRange(n, w, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad range [%d, %d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForScratchReusesPerWorkerScratch(t *testing.T) {
	const n = 500
	var created atomic.Int32
	results := make([]int, n)
	scratches := ForScratch(n, 4, func() *int {
		created.Add(1)
		v := 0
		return &v
	}, func(s *int, i int) {
		*s++ // per-worker tally
		results[i] = i * i
	})
	if int(created.Load()) != len(scratches) {
		t.Errorf("created %d scratches but %d returned", created.Load(), len(scratches))
	}
	if len(scratches) == 0 || len(scratches) > 4 {
		t.Errorf("want 1..4 scratches, got %d", len(scratches))
	}
	total := 0
	for _, s := range scratches {
		total += *s
	}
	if total != n {
		t.Errorf("scratch tallies sum to %d, want %d", total, n)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForScratchSerialSingleScratch(t *testing.T) {
	scr := ForScratch(10, 1, func() int { return 7 }, func(int, int) {})
	if len(scr) != 1 || scr[0] != 7 {
		t.Errorf("serial ForScratch scratches = %v, want [7]", scr)
	}
	if got := ForScratch(0, 4, func() int { return 7 }, func(int, int) {}); len(got) != 0 {
		t.Errorf("n=0 created %d scratches, want 0", len(got))
	}
}

func TestTaskSeedDistinctAndStable(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		s := TaskSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TaskSeed collision: tasks %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	if TaskSeed(42, 7) != TaskSeed(42, 7) {
		t.Error("TaskSeed is not a pure function")
	}
	if TaskSeed(42, 7) == TaskSeed(43, 7) {
		t.Error("TaskSeed ignores the base seed")
	}
}

// The core determinism contract: Monte-Carlo results indexed by task are
// bit-identical regardless of worker count.
func TestMonteCarloWorkerCountInvariant(t *testing.T) {
	const n = 200
	run := func(workers int) []float64 {
		out := make([]float64, n)
		if err := MonteCarloCtx(context.Background(), n, workers, 99, func(rng *rand.Rand, i int) {
			out[i] = rng.Float64() + float64(rng.Intn(10))
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 64} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: task %d drew %v, serial drew %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestMonteCarloScratchWorkerCountInvariant(t *testing.T) {
	const n, vals = 100, 50
	base := make([]float64, vals)
	for i := range base {
		base[i] = float64(i)
	}
	run := func(workers int) []float64 {
		out := make([]float64, n)
		_, err := MonteCarloScratchCtx(context.Background(), n, workers, 7,
			func() []float64 { return make([]float64, vals) },
			func(rng *rand.Rand, buf []float64, i int) {
				copy(buf, base)
				rng.Shuffle(vals, func(a, b int) { buf[a], buf[b] = buf[b], buf[a] })
				s := 0.0
				for j, v := range buf {
					s += v * float64(j%3)
				}
				out[i] = s
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: task %d = %v, serial = %v", w, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(1000, -1, func(int) {})
	}
}
