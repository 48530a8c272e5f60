package kfunc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/parallel"
)

// pinnedPlot is one record of testdata/plot_pinned.json: the plot the
// parent of the columnar pipeline (the AoS countInto / per-simulation
// UniformCSR(...).Points() → gridindex.New chain) computed for a case.
// The file was written by a build of that commit and is never regenerated
// by this one — that is what makes it a pin.
type pinnedPlot struct {
	Name string    `json:"name"`
	K    []float64 `json:"k"`
	Lo   []float64 `json:"lo"`
	Hi   []float64 `json:"hi"`
}

// pinnedCase is one cell of the pin matrix: 3 seeds × {clustered n=6000,
// CSR n=2000} × {default window, explicit window}.
type pinnedCase struct {
	name   string
	pts    []geom.Point
	opt    PlotOptions
	rngSrc int64
}

func pinnedCases() []pinnedCase {
	thresholds := make([]float64, 10)
	for i := range thresholds {
		thresholds[i] = 4 * float64(i+1) / 10
	}
	var cases []pinnedCase
	for seed := int64(1); seed <= 3; seed++ {
		for _, data := range []struct {
			name string
			pts  []geom.Point
		}{{"clustered6000", clustered(seed, 6000)}, {"csr2000", csr(seed, 2000)}} {
			for _, win := range []struct {
				name string
				box  geom.BBox
			}{{"default", geom.BBox{}}, {"explicit", geom.BBox{MinX: -5, MinY: -5, MaxX: 105, MaxY: 105}}} {
				cases = append(cases, pinnedCase{
					name:   fmt.Sprintf("%s/%s/seed%d", data.name, win.name, seed),
					pts:    data.pts,
					opt:    PlotOptions{Thresholds: thresholds, Simulations: 19, Window: win.box},
					rngSrc: seed + 100,
				})
			}
		}
	}
	return cases
}

func loadPins(t *testing.T) map[string]pinnedPlot {
	t.Helper()
	raw, err := os.ReadFile("testdata/plot_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []pinnedPlot
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	pins := make(map[string]pinnedPlot, len(recs))
	for _, r := range recs {
		pins[r.Name] = r
	}
	return pins
}

func checkPin(t *testing.T, what string, want pinnedPlot, got *Plot, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got.K, want.K) || !reflect.DeepEqual(got.Lo, want.Lo) || !reflect.DeepEqual(got.Hi, want.Hi) {
		t.Errorf("%s moved off the pin:\n K  %v\n    %v\n Lo %v\n    %v\n Hi %v\n    %v",
			what, got.K, want.K, got.Lo, want.Lo, got.Hi, want.Hi)
	}
}

// TestPlotPinned: the columnar pipeline reproduces, bit for bit and at
// every worker count, the plots the AoS path computed — through MakePlot
// (CSR drawn straight into reused columns), through the envelope driver
// fanned out over two workers and through MakePlotWithNull, both fed the
// same patterns as caller-supplied []geom.Point.
func TestPlotPinned(t *testing.T) {
	pins := loadPins(t)
	for _, c := range pinnedCases() {
		want, ok := pins[c.name]
		if !ok {
			t.Fatalf("no pin for %s", c.name)
		}
		for _, workers := range []int{1, 2, -1} {
			opt := c.opt
			opt.Workers = workers
			got, err := MakePlot(c.pts, opt, rand.New(rand.NewSource(c.rngSrc)))
			checkPin(t, fmt.Sprintf("MakePlot %s workers=%d", c.name, workers), want, got, err)
		}

		// The same null patterns, generated the way MakePlot used to.
		window := c.opt.Window
		if window.Area() == 0 {
			window = geom.NewBBox(c.pts)
		}
		seed := rand.New(rand.NewSource(c.rngSrc)).Int63()
		n := len(c.pts)
		opt := c.opt
		opt.Workers = 2
		xs, ys := geom.SplitXY(c.pts)
		r, err := observe(xs, ys, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.simulate(opt.Workers, 1, seed, func(rng *rand.Rand, s *simScratch) {
			s.load(dataset.UniformCSR(rng, n, window).Columns())
		})
		checkPin(t, "envelope "+c.name, want, got, err)
		l := 0
		got, err = MakePlotWithNull(cols(c.pts), opt, func() dataset.Columns {
			rng := parallel.NewRand(parallel.TaskSeed(seed, l))
			l++
			return dataset.UniformCSR(rng, n, window).Columns()
		})
		checkPin(t, "MakePlotWithNull "+c.name, want, got, err)
	}
}

// TestPlotCancelInsideSimulation: the envelope fan-out honours the context
// inside a simulation's curve, not only between simulations. One worker
// and one simulation, cancelled by the simulator itself: the only place
// left to notice is the curve's sweep.
func TestPlotCancelInsideSimulation(t *testing.T) {
	pts := cols(csr(1, 2000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := PlotOptions{Thresholds: []float64{1, 2}, Simulations: 1, Workers: 1, Ctx: ctx}
	plot, err := MakePlotWithNull(pts, opt, func() dataset.Columns {
		cancel()
		return pts
	})
	if !errors.Is(err, context.Canceled) || plot != nil {
		t.Fatalf("plot = %v, err = %v; want nil, context.Canceled", plot, err)
	}
}

// TestCurveCancelled: Curve under an already cancelled ctx returns
// (nil, context.Canceled) instead of counts.
func TestCurveCancelled(t *testing.T) {
	pts := cols(csr(1, 500))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if counts, err := Curve(ctx, pts.X, pts.Y, []float64{1, 2}, workers); counts != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, counts, err)
		}
	}
}
