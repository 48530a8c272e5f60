// Package dataset defines the location datasets the paper's tools consume
// (Definition 1: P = {p1..pn}; §2.3: spatiotemporal datasets with event
// times) together with deterministic synthetic generators standing in for
// the paper's access-gated real datasets (Hong Kong COVID-19, Chicago
// crime, NYC taxi — see DESIGN.md's substitution table), and CSV I/O for
// the CLIs.
//
// Storage is a chunked structure-of-arrays: separate x/y (plus optional
// time/value) columns, partitioned into ChunkSize ranges whose bounding
// boxes are precomputed (see Columns).
// Distance-bounded tools reject whole chunks against the kernel support
// before touching points, and the columnar layout is what the
// cache-blocked inner loops in internal/kde, internal/kfunc and
// internal/idw iterate. Point order is insertion order — chunking never
// reorders points, so results that sum per-point contributions are
// bit-identical to a flat array-of-structs evaluation.
package dataset

import (
	"fmt"
	"math"

	"geostat/internal/geom"
)

// Dataset is a location dataset: points with optional per-point event
// times and measured values. Times power the spatiotemporal tools (STKDV,
// spatiotemporal K-function); Values power the interpolation (IDW,
// Kriging) and autocorrelation (Moran's I, Getis-Ord) tools, which are
// defined on measured attributes rather than bare events.
//
// Invariants (checked by Validate): the optional columns are either nil or
// have exactly N() entries, and no stored number is NaN/Inf.
//
// The zero value is an empty dataset. Construct with New, FromPoints, a
// Builder (which the other two and the CSV / GeoJSON decoders use) or the
// generators; read coordinates through XY/Point/Points and the column
// accessors. The internal columns are not addressable from outside this
// package, so the chunk aggregates can never drift from the data.
type Dataset struct {
	x, y   []float64
	chunks []Chunk
	times  []float64 // event timestamps, arbitrary units; nil if purely spatial
	values []float64 // measured attribute at each point; nil if pure events

	// nb holds what the coordinates alone determine (kd-tree, last
	// adjacency), built on first use; it makes a Dataset non-copyable —
	// pass *Dataset, as every API here does.
	nb neighbourhood
}

// New assembles a dataset from points and optional times/values columns
// (either may be nil; a non-nil column of length zero is still present).
// Every input is copied through a Builder, so the caller keeps ownership of
// all three slices; lengths must match and every number must be finite.
func New(pts []geom.Point, times, values []float64) (*Dataset, error) {
	if err := checkLen("time", times, len(pts)); err != nil {
		return nil, err
	}
	if err := checkLen("value", values, len(pts)); err != nil {
		return nil, err
	}
	var b Builder
	b.Reset(len(pts), times != nil, values != nil)
	var t, v float64
	for i, p := range pts {
		if times != nil {
			t = times[i]
		}
		if values != nil {
			v = values[i]
		}
		b.Add(p.X, p.Y, t, v)
	}
	d := b.Dataset()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// FromPoints builds a dataset over pts. The coordinates are copied into
// the chunked columnar storage: unlike the pre-columnar version of this
// API, the input slice is NOT retained, so callers may reuse or mutate pts
// freely afterwards (the old aliasing footgun is gone by construction).
// Nothing is validated here; call Validate.
func FromPoints(pts []geom.Point) *Dataset {
	var b Builder
	b.Reset(len(pts), false, false)
	for _, p := range pts {
		b.Add(p.X, p.Y, 0, 0)
	}
	return b.Dataset()
}

// N returns the number of points.
func (d *Dataset) N() int { return len(d.x) }

// XY returns the coordinates of point i.
func (d *Dataset) XY(i int) (x, y float64) { return d.x[i], d.y[i] }

// Point returns point i.
func (d *Dataset) Point(i int) geom.Point { return geom.Point{X: d.x[i], Y: d.y[i]} }

// Points materialises the points as a fresh array-of-structs slice — an
// O(n) copy for APIs shaped around []geom.Point. Hot paths should use
// Columns instead and iterate the coordinate slices directly.
func (d *Dataset) Points() []geom.Point {
	pts := make([]geom.Point, len(d.x))
	for i := range pts {
		pts[i] = geom.Point{X: d.x[i], Y: d.y[i]}
	}
	return pts
}

// Columns returns the chunked SoA view of the dataset (coordinates and
// per-chunk aggregates). The returned slices alias the dataset's storage
// and are read-only: writing through them breaks the chunk aggregates (the
// geolint colaccess analyzer enforces this outside internal/dataset). The
// view remembers d, so its Tree is d's memoised one.
func (d *Dataset) Columns() Columns {
	return Columns{X: d.x, Y: d.y, Chunks: d.chunks, snap: d}
}

// Chunks returns the per-chunk metadata (see Chunk).
func (d *Dataset) Chunks() []Chunk { return d.chunks }

// Times returns the event-time column (nil if purely spatial). The slice
// aliases the dataset's storage; treat it as read-only.
func (d *Dataset) Times() []float64 { return d.times }

// Values returns the measured-value column (nil if pure events). The
// slice aliases the dataset's storage; treat it as read-only.
func (d *Dataset) Values() []float64 { return d.values }

// HasTimes reports whether the dataset carries event times.
func (d *Dataset) HasTimes() bool { return d.times != nil }

// HasValues reports whether the dataset carries measured values.
func (d *Dataset) HasValues() bool { return d.values != nil }

// SetTimes attaches (or with nil, removes) the event-time column. The
// slice is retained without copying; the caller must not mutate it
// afterwards.
func (d *Dataset) SetTimes(times []float64) error {
	if err := checkColumn("time", times, d.N()); err != nil {
		return err
	}
	d.times = times
	return nil
}

// SetValues attaches (or with nil, removes) the measured-value column.
// The slice is retained without copying; the caller must not mutate it
// afterwards.
func (d *Dataset) SetValues(values []float64) error {
	if err := checkColumn("value", values, d.N()); err != nil {
		return err
	}
	d.values = values
	return nil
}

// checkColumn validates an optional column against the point count: nil is
// allowed, otherwise the length must match and every entry be finite.
func checkColumn(what string, col []float64, n int) error {
	if err := checkLen(what, col, n); err != nil {
		return err
	}
	for i, v := range col {
		if !finite(v) {
			return fmt.Errorf("dataset: %s %d is non-finite (%v)", what, i, v)
		}
	}
	return nil
}

// checkLen checks an optional column's length: nil, or one entry per point.
func checkLen(what string, col []float64, n int) error {
	if col != nil && len(col) != n {
		return fmt.Errorf("dataset: %d points but %d %ss", n, len(col), what)
	}
	return nil
}

// Bounds returns the bounding box of the points, from the precomputed
// chunk aggregates (O(chunks)).
func (d *Dataset) Bounds() geom.BBox {
	b := geom.EmptyBBox()
	for _, ch := range d.chunks {
		b = b.Union(ch.BBox)
	}
	return b
}

// TimeRange returns the min and max event time. It returns (0, 0, false)
// if the dataset has no times or no points.
func (d *Dataset) TimeRange() (lo, hi float64, ok bool) {
	if !d.HasTimes() || len(d.times) == 0 {
		return 0, 0, false
	}
	lo, hi = d.times[0], d.times[0]
	for _, t := range d.times[1:] {
		lo = math.Min(lo, t)
		hi = math.Max(hi, t)
	}
	return lo, hi, true
}

// Validate checks the dataset invariants: matched column lengths and no
// NaN/Inf anywhere (coordinates, times, values).
func (d *Dataset) Validate() error {
	if len(d.x) != len(d.y) {
		return fmt.Errorf("dataset: %d x coordinates but %d y coordinates", len(d.x), len(d.y))
	}
	for i := range d.x {
		if !finite(d.x[i]) || !finite(d.y[i]) {
			return fmt.Errorf("dataset: point %d has non-finite coordinate (%g, %g)", i, d.x[i], d.y[i])
		}
	}
	if err := checkColumn("time", d.times, d.N()); err != nil {
		return err
	}
	return checkColumn("value", d.values, d.N())
}

// Clone returns a deep copy of d.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		x:      append([]float64(nil), d.x...),
		y:      append([]float64(nil), d.y...),
		chunks: append([]Chunk(nil), d.chunks...),
	}
	if d.times != nil {
		c.times = append([]float64(nil), d.times...)
	}
	if d.values != nil {
		c.values = append([]float64(nil), d.values...)
	}
	return c
}

// Subset returns a new dataset holding the points at the given indices,
// carrying times/values along when present.
func (d *Dataset) Subset(idx []int) *Dataset {
	c := d.Columns().Gather(idx)
	return &Dataset{
		x: c.X, y: c.Y, chunks: c.Chunks,
		times:  subsetColumn(d.times, idx),
		values: subsetColumn(d.values, idx),
	}
}

func subsetColumn(col []float64, idx []int) []float64 {
	if col == nil {
		return nil
	}
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = col[i]
	}
	return out
}

// FilterBox returns a new dataset with only the points inside box
// (boundary inclusive), in their original order, carrying the optional
// columns along. It selects through the same chunk-and-bitset pass as
// Columns.FilterBox, so whole chunks are kept or skipped without
// per-point tests.
func (d *Dataset) FilterBox(box geom.BBox) *Dataset {
	s := selectBox(d.Columns(), box)
	x, y := s.take(d.x), s.take(d.y)
	return &Dataset{
		x: x, y: y, chunks: buildChunks(x, y),
		times:  s.take(d.times),
		values: s.take(d.values),
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
