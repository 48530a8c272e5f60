package kde

import (
	"fmt"
	"strings"
	"testing"

	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// This file holds every point-major writer — the exact method rows,
// Adaptive and Stream — to the pixels the kernel test passes, on inputs
// where a float column range rounds the wrong way.

// roundingCase is one point on a one-row grid over [minX, maxX) × [0, 1)
// with nx columns, at (x, 0.5), and a bandwidth b.
type roundingCase struct {
	minX, maxX float64
	nx         int
	x, b       float64
}

func (tc roundingCase) grid() geom.PixelGrid {
	return geom.NewPixelGrid(geom.BBox{MinX: tc.minX, MinY: 0, MaxX: tc.maxX, MaxY: 1}, tc.nx, 1)
}

func (tc roundingCase) pts() []geom.Point { return []geom.Point{{X: tc.x, Y: 0.5}} }

func (tc roundingCase) String() string {
	return fmt.Sprintf("x=%v b=%v grid=[%v,%v)/%d", tc.x, tc.b, tc.minX, tc.maxX, tc.nx)
}

// roundingCases are points whose passing pixels the float interval
// ⌈(x − b − MinX)/cell − ½⌉ … ⌊(x + b − MinX)/cell − ½⌋ misses by
// rounding, found by a brute-force search: one column short on the left or
// the right on UTM-sized grids, and several columns on grids whose cell is
// below the ulp of their coordinates.
var roundingCases = []roundingCase{
	{3.3e6, 3.3000063e6, 9, 3.3000050858565005e6, 1.235856500678855},              // interval [6,9), passing [5,9)
	{3.3e6, 3.3000002e6, 2, 3.2999995588938706e6, 0.49110612946086346},            // [0,0), passing [0,1)
	{3.3e6, 3.300000000000001e6, 65, 3.3000000000000014e6, 9.313225746154785e-10}, // [32,65), passing [16,65)
	{3.3e6, 3.300000000000003e6, 45, 3.3e6, 2.3283064365386963e-10},               // [0,0), passing [0,4)
}

// footprintCases returns roundingCases and the scatterCases that put
// support ends on ties — UTM offsets, pixel centres, a sub-ulp grid, n = 0
// and 1 — as (grid, points, bandwidths). It leaves out the 9 000-point
// chunk cases, which exercise naive's chunk skip rather than ties: on
// chunks-by-x at b = 6 the sweep's triweight sums miss sweepTol by a few
// percent, before and after the shared footprint alike.
func footprintCases() []scatterCase {
	var cs []scatterCase
	for _, tc := range roundingCases {
		cs = append(cs, scatterCase{name: tc.String(), grid: tc.grid(), pts: tc.pts(), bs: []float64{tc.b}})
	}
	for _, sc := range scatterCases() {
		if !strings.HasPrefix(sc.name, "chunks-") {
			cs = append(cs, sc)
		}
	}
	return cs
}

// TestExactMethodsOnFootprintCases runs footprintCases through every exact
// row of the method table, for every kernel the row accepts, against the
// direct sum at the tolerance the row's contract states (assertMatches).
func TestExactMethodsOnFootprintCases(t *testing.T) {
	for _, sc := range footprintCases() {
		for _, kt := range kernel.All() {
			for _, b := range sc.bs {
				k := kernel.MustNew(kt, b)
				opt := Options{Kernel: k, Grid: sc.grid}
				want := aosReference(sc.pts, opt)
				for ri := range methods {
					r := &methods[ri]
					if !r.exact || r.kernels.missing(k) != "" {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%v/b=%v", r.name, sc.name, kt, b), func(t *testing.T) {
						got, err := Evaluate(cols(sc.pts), r.id, opt)
						if err != nil {
							t.Fatal(err)
						}
						assertMatches(t, r, got, want, k, len(sc.pts), 1)
					})
				}
			}
		}
	}
}

// TestAdaptiveConstantBandwidthIsNaive: at one bandwidth for every point,
// Adaptive scatters the terms naive sums, in the same point order, so the
// rasters agree bit for bit at every worker count.
func TestAdaptiveConstantBandwidthIsNaive(t *testing.T) {
	for _, sc := range footprintCases() {
		for _, kt := range finiteKernels {
			for _, b := range sc.bs {
				t.Run(fmt.Sprintf("%s/%v/b=%v", sc.name, kt, b), func(t *testing.T) {
					want, err := Evaluate(cols(sc.pts), Naive, Options{Kernel: kernel.MustNew(kt, b), Grid: sc.grid})
					if err != nil {
						t.Fatal(err)
					}
					bw := make([]float64, len(sc.pts))
					for i := range bw {
						bw[i] = b
					}
					for _, workers := range []int{1, 2, -1} {
						got, err := Adaptive(cols(sc.pts), bw, kt, sc.grid, workers)
						if err != nil {
							t.Fatal(err)
						}
						assertBitIdentical(t, got, want, fmt.Sprintf("workers=%d", workers))
					}
				})
			}
		}
	}
}

// TestStreamAddAllIsNaive: a stream that adds every event in index order
// holds naive's raster bit for bit.
func TestStreamAddAllIsNaive(t *testing.T) {
	for _, sc := range footprintCases() {
		for _, kt := range finiteKernels {
			for _, b := range sc.bs {
				t.Run(fmt.Sprintf("%s/%v/b=%v", sc.name, kt, b), func(t *testing.T) {
					k := kernel.MustNew(kt, b)
					want, err := Evaluate(cols(sc.pts), Naive, Options{Kernel: k, Grid: sc.grid})
					if err != nil {
						t.Fatal(err)
					}
					s, err := NewStream(k, sc.grid)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range sc.pts {
						s.Add(p)
					}
					assertBitIdentical(t, s.Snapshot(), want, "stream")
				})
			}
		}
	}
}
