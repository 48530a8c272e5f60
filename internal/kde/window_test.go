package kde

import (
	"math"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// TestWindowedMatchesFullGridExactly is the bit-identity contract the shard
// coordinator relies on: a windowed Naive evaluation equals the matching
// rectangle of the full-extent raster Float64bits-for-Float64bits.
func TestWindowedMatchesFullGridExactly(t *testing.T) {
	pts := clusteredPoints(7, 400)
	for _, typ := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Gaussian} {
		opt := testOpts(typ, 12)
		full, err := Evaluate(cols(pts), Naive, opt)
		if err != nil {
			t.Fatalf("%v full: %v", typ, err)
		}
		windows := []geom.GridWindow{
			{X0: 0, Y0: 0, NX: opt.Grid.NX, NY: opt.Grid.NY},
			{X0: 0, Y0: 0, NX: 13, NY: 9},
			{X0: 17, Y0: 11, NX: 23, NY: 21},
			{X0: 39, Y0: 31, NX: 1, NY: 1},
			{X0: 5, Y0: 0, NX: 7, NY: 32},
		}
		for _, w := range windows {
			wopt := opt
			wopt.Window = w
			got, err := Evaluate(cols(pts), Naive, wopt)
			if err != nil {
				t.Fatalf("%v window %+v: %v", typ, w, err)
			}
			if got.Spec.NX != w.NX || got.Spec.NY != w.NY {
				t.Fatalf("%v window %+v: got %dx%d raster", typ, w, got.Spec.NX, got.Spec.NY)
			}
			for iy := 0; iy < w.NY; iy++ {
				for ix := 0; ix < w.NX; ix++ {
					want := full.Values[full.Spec.Index(w.X0+ix, w.Y0+iy)]
					have := got.Values[iy*w.NX+ix]
					if math.Float64bits(want) != math.Float64bits(have) {
						t.Fatalf("%v window %+v pixel (%d,%d): %x != %x",
							typ, w, ix, iy, math.Float64bits(have), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestWindowedHaloSubsetExact models one shard tile: evaluating a window
// against only the points within kernel support of the tile box must equal
// the full-dataset window bit-for-bit (finite-support kernels; skipped
// terms are exactly zero).
func TestWindowedHaloSubsetExact(t *testing.T) {
	pts := clusteredPoints(11, 500)
	d, err := dataset.New(pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOpts(kernel.Quartic, 9)
	w := geom.GridWindow{X0: 8, Y0: 6, NX: 14, NY: 12}
	wopt := opt
	wopt.Window = w

	full, err := Evaluate(d.Columns(), Naive, wopt)
	if err != nil {
		t.Fatal(err)
	}
	halo := opt.Grid.WindowBox(w).Pad(opt.Kernel.SupportRadius())
	sub := d.FilterBox(halo)
	if sub.N() == d.N() || sub.N() == 0 {
		t.Fatalf("halo filter not selective: %d of %d points", sub.N(), d.N())
	}
	got, err := Evaluate(sub.Columns(), Naive, wopt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Values {
		if math.Float64bits(full.Values[i]) != math.Float64bits(got.Values[i]) {
			t.Fatalf("pixel %d: halo subset %x != full %x",
				i, math.Float64bits(got.Values[i]), math.Float64bits(full.Values[i]))
		}
	}
}

// TestWindowValidation covers malformed and out-of-grid windows. (Which
// methods accept a well-formed window is the capability matrix's job.)
func TestWindowValidation(t *testing.T) {
	pts := clusteredPoints(3, 50)
	opt := testOpts(kernel.Quartic, 10)

	bad := []geom.GridWindow{
		{X0: 0, Y0: 0, NX: 0, NY: 5},
		{X0: -1, Y0: 0, NX: 4, NY: 4},
		{X0: 38, Y0: 0, NX: 4, NY: 4},
		{X0: 0, Y0: 30, NX: 4, NY: 4},
	}
	for _, w := range bad {
		wopt := opt
		wopt.Window = w
		if _, err := Evaluate(cols(pts), Naive, wopt); err == nil {
			t.Errorf("window %+v accepted", w)
		}
	}
}
