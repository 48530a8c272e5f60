//go:build go1.24

package kde

import (
	"runtime"
	"testing"
	"weak"

	"geostat/internal/dataset"
	"geostat/internal/kernel"
)

// TestSweepPinsNothing: once Evaluate returns, nothing holds the sweep
// computer or its bucketed point copy, so one GC frees them. Row scratch
// kept in a pool inside the computer would pin both until the second GC.
func TestSweepPinsNothing(t *testing.T) {
	row := lookup(SweepLine, kernel.MustNew(kernel.Quartic, 1))
	build := row.build
	t.Cleanup(func() { row.build = build })
	var comp weak.Pointer[sweepComputer]
	var xs weak.Pointer[float64]
	row.build = func(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
		rc, gain, err := build(cols, opt)
		if c, ok := rc.(*sweepComputer); ok {
			comp, xs = weak.Make(c), weak.Make(&c.xs[0])
		}
		return rc, gain, err
	}
	cols := dataset.FromPoints(clusteredPoints(3, 20000)).Columns()
	for _, workers := range []int{1, 4} {
		opt := testOpts(kernel.Quartic, 4)
		opt.Workers = workers
		if _, err := Evaluate(cols, SweepLine, opt); err != nil {
			t.Fatal(err)
		}
		if comp.Value() == nil {
			t.Fatal("the sweep computer was not built")
		}
		runtime.GC()
		if comp.Value() != nil || xs.Value() != nil {
			t.Errorf("workers=%d: the sweep computer or its point copy outlived a GC after Evaluate returned", workers)
		}
	}
}
