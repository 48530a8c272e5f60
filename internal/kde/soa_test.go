package kde

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/raster"
)

// This file pins down the contracts of the chunked-SoA refactor:
//
//   - the columnar inner loops are bit-identical to the straightforward
//     array-of-structs reference loop they replaced, serial and parallel;
//   - the naive evaluator allocates nothing per row (scatter_test.go holds
//     its finite-kernel row scatter to the gather bit for bit).

// aosReference computes the KDV the pre-columnar way: one
// array-of-structs pass over the points per pixel, accumulating
// K.Eval2(d²) in point order. This is the bit-level ground truth the
// columnar loops must reproduce.
func aosReference(pts []geom.Point, opt Options) *raster.Grid {
	g := raster.NewGrid(opt.Grid)
	for iy := 0; iy < opt.Grid.NY; iy++ {
		for ix := 0; ix < opt.Grid.NX; ix++ {
			q := opt.Grid.Center(ix, iy)
			sum := 0.0
			for _, p := range pts {
				sum += opt.Kernel.Eval2(p.Dist2(q))
			}
			g.Set(ix, iy, sum)
		}
	}
	return g
}

// assertBitIdentical fails unless both grids are equal via Float64bits.
func assertBitIdentical(t *testing.T, got, want *raster.Grid, label string) {
	t.Helper()
	for iy := 0; iy < want.Spec.NY; iy++ {
		for ix := 0; ix < want.Spec.NX; ix++ {
			g, w := got.At(ix, iy), want.At(ix, iy)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: pixel (%d,%d) = %v (bits %x), want %v (bits %x)",
					label, ix, iy, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// multiChunkPoints returns enough clustered points to span several storage
// chunks (ChunkSize = 4096), sorted by x so chunk bounding boxes are thin
// vertical slabs.
func multiChunkPoints(seed int64, n int) []geom.Point {
	pts := clusteredPoints(seed, n)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

func TestColumnarBitIdentityVsAoSReference(t *testing.T) {
	pts := multiChunkPoints(11, 9500) // 3 chunks
	for _, kt := range []kernel.Type{kernel.Quartic, kernel.Gaussian} {
		opt := testOpts(kt, 9)
		opt.Grid = geom.NewPixelGrid(box, 24, 20)
		want := aosReference(pts, opt)
		for _, workers := range []int{1, 4} {
			opt.Workers = workers
			got, err := Evaluate(cols(pts), Naive, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, got, want, kt.String())
		}
	}
}

// TestHotPathAllocs counts the exact evaluators' per-row allocations,
// calls through the chunkEval function value included: none, for naive's
// pixel-major gather (Gaussian, exponential), for every finite kernel's
// row scatter, for grid-cutoff's filtered scan with its counters, and for
// the polynomial kernels' sweep row once its pooled buffer is warm. Five
// chunks give the row several chunks to stream. The race detector's
// sync.Pool drops pooled items at random, so the sweep row is counted only
// without it.
func TestHotPathAllocs(t *testing.T) {
	pts := multiChunkPoints(13, 4*dataset.ChunkSize+100)
	row := make([]float64, 8)
	for _, kt := range kernel.All() {
		t.Run(kt.String(), func(t *testing.T) {
			opt := testOpts(kt, 6)
			opt.Grid = geom.NewPixelGrid(box, len(row), 4)
			build := []func(dataset.Columns, *Options) (rowComputer, float64, error){buildNaive}
			if opt.Kernel.FiniteSupport() {
				build = append(build, buildCutoff)
			}
			if SweepSupported(kt) && !raceEnabled {
				build = append(build, buildSweep)
			}
			for _, b := range build {
				rc, _, err := b(cols(pts), &opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := testing.AllocsPerRun(10, func() { rc.computeRow(2, row) }); got != 0 {
					t.Errorf("%T.computeRow allocates %v times per row, want 0", rc, got)
				}
			}
		})
	}
}

// TestBoundApproxCostIsPerPixel: over a dataset's columns BoundApprox runs
// on the snapshot's memoised kd-tree, so two calls build one tree, and a
// warm call allocates the same bytes at n = 10 000 as at n = 100 000: its
// cost is O(pixels), with no per-call point copy or index.
func TestBoundApproxCostIsPerPixel(t *testing.T) {
	opt := withApprox(testOpts(kernel.Gaussian, 4), 0, 0.05, 0)
	bytes := map[int]uint64{}
	for _, n := range []int{10000, 100000} {
		d := dataset.FromPoints(clusteredPoints(35, n))
		eval := func() {
			if _, err := Evaluate(d.Columns(), BoundApprox, opt); err != nil {
				t.Fatal(err)
			}
		}
		before, _ := dataset.NeighbourhoodBuilds()
		eval()
		eval()
		if after, _ := dataset.NeighbourhoodBuilds(); after-before != 1 {
			t.Fatalf("n=%d: two calls built %d trees, want 1", n, after-before)
		}
		bytes[n] = allocatedBytes(eval)
		t.Logf("n=%d: %d bytes per warm call", n, bytes[n])
	}
	// Under -race the refinement queues' pool drops entries at random, so
	// the bytes vary run to run; the build-once check above still holds.
	if !raceEnabled && bytes[10000] != bytes[100000] {
		t.Errorf("warm call allocates %d bytes at n=10000 but %d at n=100000", bytes[10000], bytes[100000])
	}
}

// allocatedBytes returns the fewest heap bytes f allocated over five runs
// (the fewest, so a GC emptying a sync.Pool mid-run does not count).
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}
