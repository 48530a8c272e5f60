package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geostat/internal/geom"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

// raw builds a dataset directly from columns WITHOUT validation, so tests
// can construct deliberately malformed datasets.
func raw(pts []geom.Point, times, values []float64) *Dataset {
	d := FromPoints(pts)
	d.times, d.values = times, values
	return d
}

func TestValidate(t *testing.T) {
	d := raw([]geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}, nil, nil)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := []*Dataset{
		raw([]geom.Point{{X: 1, Y: 2}}, []float64{1, 2}, nil),
		raw([]geom.Point{{X: 1, Y: 2}}, nil, []float64{}),
		raw([]geom.Point{{X: math.NaN(), Y: 2}}, nil, nil),
		raw([]geom.Point{{X: 1, Y: math.Inf(1)}}, nil, nil),
		raw([]geom.Point{{X: 1, Y: 2}}, []float64{math.NaN()}, nil),
		raw([]geom.Point{{X: 1, Y: 2}}, nil, []float64{math.Inf(-1)}),
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad dataset %d accepted", i)
		}
	}
}

func TestCloneAndSubset(t *testing.T) {
	d := raw(
		[]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}},
		[]float64{10, 20, 30},
		[]float64{-1, -2, -3},
	)
	c := d.Clone()
	c.Times()[0] = 99
	c.Values()[0] = 99
	if d.Times()[0] == 99 || d.Values()[0] == 99 {
		t.Fatal("Clone aliases the original")
	}
	s := d.Subset([]int{2, 0})
	if s.N() != 2 || s.Points()[0] != (geom.Point{X: 2, Y: 2}) || s.Times()[1] != 10 || s.Values()[0] != -3 {
		t.Fatalf("Subset = %+v", s)
	}
}

func TestTimeRange(t *testing.T) {
	d := raw([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, []float64{5, -2}, nil)
	lo, hi, ok := d.TimeRange()
	if !ok || lo != -2 || hi != 5 {
		t.Errorf("TimeRange = %v %v %v", lo, hi, ok)
	}
	if _, _, ok := FromPoints(nil).TimeRange(); ok {
		t.Error("TimeRange on timeless dataset should report !ok")
	}
}

func TestUniformCSR(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := UniformCSR(r, 5000, box)
	if d.N() != 5000 {
		t.Fatalf("N = %d", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points() {
		if !box.Contains(p) {
			t.Fatalf("point %v outside box", p)
		}
	}
	// Quadrant counts should be roughly balanced under CSR.
	var q [4]int
	for _, p := range d.Points() {
		i := 0
		if p.X > 50 {
			i |= 1
		}
		if p.Y > 50 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if c < 1000 || c > 1500 {
			t.Errorf("quadrant %d count %d far from 1250", i, c)
		}
	}
}

func TestGaussianClustersConcentration(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cl := []Cluster{
		{Center: geom.Point{X: 25, Y: 25}, Sigma: 3, Weight: 2},
		{Center: geom.Point{X: 75, Y: 75}, Sigma: 3, Weight: 1},
	}
	d := GaussianClusters(r, 3000, box, cl, 0.1)
	if d.N() != 3000 {
		t.Fatalf("N = %d", d.N())
	}
	near := func(c geom.Point) int {
		n := 0
		for _, p := range d.Points() {
			if p.Dist(c) < 10 {
				n++
			}
		}
		return n
	}
	n1, n2 := near(geom.Point{X: 25, Y: 25}), near(geom.Point{X: 75, Y: 75})
	if n1 < 1500 || n2 < 700 {
		t.Errorf("cluster concentrations too low: %d, %d", n1, n2)
	}
	if n1 < n2 {
		t.Errorf("weight-2 cluster (%d) should outnumber weight-1 cluster (%d)", n1, n2)
	}
}

func TestMaternCluster(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := MaternCluster(r, box, 0.002, 30, 4)
	if d.N() == 0 {
		t.Fatal("Matérn process produced no points")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points() {
		if !box.Contains(p) {
			t.Fatalf("point %v outside box", p)
		}
	}
	// Clustered data: mean nearest-neighbour distance is far below the CSR
	// expectation 0.5/sqrt(density).
	mnn := meanNearestNeighbour(d.Points())
	csr := 0.5 / math.Sqrt(float64(d.N())/box.Area())
	if mnn > csr*0.8 {
		t.Errorf("Matérn mean NN dist %v not clustered vs CSR %v", mnn, csr)
	}
}

func TestDispersed(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const minDist = 4.0
	d := Dispersed(r, 300, box, minDist)
	if d.N() != 300 {
		t.Fatalf("N = %d", d.N())
	}
	violations := 0
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			if d.Points()[i].Dist(d.Points()[j]) < minDist {
				violations++
			}
		}
	}
	// The generator admits fallback placements; near-zero violations expected
	// at this density.
	if violations > 3 {
		t.Errorf("%d pairs violate the inhibition distance", violations)
	}
	mnn := meanNearestNeighbour(d.Points())
	csr := 0.5 / math.Sqrt(float64(d.N())/box.Area())
	if mnn < csr {
		t.Errorf("dispersed mean NN dist %v should exceed CSR %v", mnn, csr)
	}
}

func TestSpatioTemporalOutbreak(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	waves := []Wave{
		{Center: geom.Point{X: 20, Y: 20}, Sigma: 4, TimeMean: 10, TimeSigma: 2, Weight: 1},
		{Center: geom.Point{X: 80, Y: 80}, Sigma: 4, TimeMean: 40, TimeSigma: 2, Weight: 1},
	}
	d := SpatioTemporalOutbreak(r, 4000, box, 0, 50, waves, 0.1)
	if d.N() != 4000 || !d.HasTimes() {
		t.Fatalf("N=%d hasTimes=%v", d.N(), d.HasTimes())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Early events cluster near wave 1's center, late ones near wave 2's.
	early, late := centroidByTime(d, 0, 20), centroidByTime(d, 30, 50)
	if early.Dist(geom.Point{X: 20, Y: 20}) > 15 {
		t.Errorf("early centroid %v far from wave 1", early)
	}
	if late.Dist(geom.Point{X: 80, Y: 80}) > 15 {
		t.Errorf("late centroid %v far from wave 2", late)
	}
}

func TestWithField(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := UniformCSR(r, 500, box)
	WithField(r, d, func(p geom.Point) float64 { return p.X }, 0)
	for i, p := range d.Points() {
		if d.Values()[i] != p.X {
			t.Fatalf("value %d = %v, want %v", i, d.Values()[i], p.X)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cases := []*Dataset{
		raw([]geom.Point{{X: 1.5, Y: -2.25}, {X: 0, Y: 7}}, nil, nil),
		raw([]geom.Point{{X: 1, Y: 2}}, []float64{3.5}, nil),
		raw([]geom.Point{{X: 1, Y: 2}}, nil, []float64{-9}),
		raw([]geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}, []float64{0, 1}, []float64{5, 6}),
	}
	for i, d := range cases {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			t.Fatalf("case %d write: %v", i, err)
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("case %d read: %v", i, err)
		}
		if got.N() != d.N() || got.HasTimes() != d.HasTimes() || got.HasValues() != d.HasValues() {
			t.Fatalf("case %d shape mismatch: %+v vs %+v", i, got, d)
		}
		for j := range d.Points() {
			if got.Points()[j] != d.Points()[j] {
				t.Errorf("case %d point %d: %v != %v", i, j, got.Points()[j], d.Points()[j])
			}
			if d.HasTimes() && got.Times()[j] != d.Times()[j] {
				t.Errorf("case %d time %d mismatch", i, j)
			}
			if d.HasValues() && got.Values()[j] != d.Values()[j] {
				t.Errorf("case %d value %d mismatch", i, j)
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	r := rand.New(rand.NewSource(8))
	d := UniformCSR(r, 50, box)
	if err := WriteCSVFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 50 {
		t.Fatalf("N = %d", got.N())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"a,b\n1,2\n",     // bad header
		"x,y\n1\n",       // short row (csv library catches record length)
		"x,y\n1,foo\n",   // non-numeric
		"x,y,z,w,v\n",    // too many columns
		"x,y\nNaN,2\n",   // non-finite coordinate
		"x,y,t\n1,2,#\n", // non-numeric time
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: error expected for %q", i, s)
		}
	}
}

func meanNearestNeighbour(pts []geom.Point) float64 {
	sum := 0.0
	for i, p := range pts {
		best := math.Inf(1)
		for j, q := range pts {
			if i == j {
				continue
			}
			if d := p.Dist2(q); d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(len(pts))
}

func centroidByTime(d *Dataset, t0, t1 float64) geom.Point {
	var c geom.Point
	n := 0
	ts := d.Times()
	for i, p := range d.Points() {
		if ts[i] >= t0 && ts[i] <= t1 {
			c = c.Add(p)
			n++
		}
	}
	if n == 0 {
		return c
	}
	return c.Scale(1 / float64(n))
}

func TestFilterBox(t *testing.T) {
	d := raw(
		[]geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 9}},
		[]float64{1, 2, 3},
		[]float64{10, 20, 30},
	)
	f := d.FilterBox(geom.BBox{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5})
	if f.N() != 2 || f.Times()[1] != 2 || f.Values()[1] != 20 {
		t.Fatalf("FilterBox = %+v", f)
	}
	if empty := d.FilterBox(geom.EmptyBBox()); empty.N() != 0 {
		t.Error("empty box filter should drop everything")
	}

	// Both filters against a point-by-point BBox.Contains reference, with
	// every optional column attached, on boxes that meet the chunks in each
	// way: a straddled chunk, every point inside, nothing inside.
	r := rand.New(rand.NewSource(47))
	n := 2*ChunkSize + 300
	pts := make([]geom.Point, n)
	times, values := make([]float64, n), make([]float64, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		if i < ChunkSize {
			pts[i].X *= 0.3 // chunk 0 lies left of x = 30
		}
		times[i], values[i] = float64(i), r.NormFloat64()
	}
	full, err := New(pts, times, values)
	if err != nil {
		t.Fatal(err)
	}
	boxes := []geom.BBox{
		{MinX: -1, MinY: -1, MaxX: 40, MaxY: 101}, // chunk 0 inside, the rest straddle
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},  // every point inside
		{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300},
		geom.EmptyBBox(),
	}
	for i := 0; i < 20; i++ {
		x0, y0 := r.Float64()*110-5, r.Float64()*110-5
		boxes = append(boxes, geom.BBox{MinX: x0, MinY: y0, MaxX: x0 + r.Float64()*60, MaxY: y0 + r.Float64()*60})
	}
	for _, b := range boxes {
		var idx []int
		for i, p := range pts {
			if b.Contains(p) {
				idx = append(idx, i)
			}
		}
		want := full.Subset(idx)
		got := full.FilterBox(b)
		if !reflect.DeepEqual(got.Columns().X, want.Columns().X) || !reflect.DeepEqual(got.Columns().Y, want.Columns().Y) ||
			!reflect.DeepEqual(got.Times(), want.Times()) || !reflect.DeepEqual(got.Values(), want.Values()) ||
			!reflect.DeepEqual(got.Chunks(), want.Chunks()) {
			t.Fatalf("box %+v: Dataset.FilterBox keeps %d points, reference %d, or other columns", b, got.N(), want.N())
		}
		if got.Digest() != want.Digest() {
			t.Fatalf("box %+v: digest %.12s, reference %.12s", b, got.Digest(), want.Digest())
		}
		if got.N() > 0 && &got.Columns().X[0] == &full.Columns().X[0] {
			t.Fatalf("box %+v: Dataset.FilterBox aliases its receiver", b)
		}
		cols := full.Columns().FilterBox(b)
		if !reflect.DeepEqual(cols.X, want.Columns().X) || !reflect.DeepEqual(cols.Y, want.Columns().Y) {
			t.Fatalf("box %+v: Columns.FilterBox keeps %d points, reference %d, or in another order", b, cols.N(), want.N())
		}
	}
}

// TestColumnsFilterBox: the columnar filter keeps exactly the points
// Dataset.FilterBox keeps, in the same order, whichever way each chunk
// meets the box, and returns the receiver when nothing falls outside.
func TestColumnsFilterBox(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	n := 3*ChunkSize + 100
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	// Chunk 0 lies left of x = 30, chunk 1 right of x = 70, the rest anywhere.
	for i := 0; i < ChunkSize; i++ {
		pts[i].X *= 0.3
		pts[ChunkSize+i].X = 70 + pts[ChunkSize+i].X*0.3
	}
	d := FromPoints(pts)
	c := d.Columns()
	for _, box := range []geom.BBox{
		{MinX: -1, MinY: -1, MaxX: 40, MaxY: 101}, // chunk 0 inside, 1 outside, rest straddle
		{MinX: 50, MinY: 20, MaxX: 101, MaxY: 60},
		{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300},
		geom.EmptyBBox(),
	} {
		got, want := c.FilterBox(box), d.FilterBox(box).Columns()
		if !reflect.DeepEqual(got.X, want.X) || !reflect.DeepEqual(got.Y, want.Y) {
			t.Fatalf("box %+v: columnar filter keeps %d points, dataset filter %d, or in another order", box, got.N(), want.N())
		}
		if !reflect.DeepEqual(got.Chunks, want.Chunks) {
			t.Fatalf("box %+v: chunk aggregates differ from a fresh build", box)
		}
	}
	all := c.FilterBox(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	if all.N() != n || &all.X[0] != &c.X[0] || &all.Y[0] != &c.Y[0] {
		t.Error("a box holding every point must return the receiver's own columns")
	}
	if got := (Columns{}).FilterBox(geom.BBox{MaxX: 1, MaxY: 1}); got.N() != 0 {
		t.Errorf("empty columns filtered to %d points", got.N())
	}
}

func TestSampleFromIntensity(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	spec := geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 2, 2)
	// Bottom-left pixel carries 90% of the mass.
	vals := []float64{9, 0.5, 0.25, 0.25}
	d, err := SampleFromIntensity(r, spec, vals, 20000)
	if err != nil {
		t.Fatal(err)
	}
	inBL := 0
	for _, p := range d.Points() {
		if !spec.Box.Contains(p) {
			t.Fatalf("point %v outside grid", p)
		}
		if p.X < 5 && p.Y < 5 {
			inBL++
		}
	}
	share := float64(inBL) / 20000
	if share < 0.88 || share > 0.92 {
		t.Errorf("bottom-left share = %v, want ≈ 0.9", share)
	}
	// Errors.
	if _, err := SampleFromIntensity(r, spec, vals[:2], 5); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := SampleFromIntensity(r, spec, []float64{0, 0, 0, 0}, 5); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := SampleFromIntensity(r, spec, []float64{1, -1, 0, 0}, 5); err == nil {
		t.Error("negative intensity accepted")
	}
}

func TestChunkAggregates(t *testing.T) {
	// Chunks must partition [0, n) in order, and every chunk's bbox must
	// match a brute-force recomputation.
	r := rand.New(rand.NewSource(31))
	n := 2*ChunkSize + 137 // three chunks, last one ragged
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	chunks := FromPoints(pts).Chunks()
	if len(chunks) != 3 {
		t.Fatalf("len(chunks) = %d, want 3", len(chunks))
	}
	next := 0
	for ci, ch := range chunks {
		if ch.Lo != next || ch.Hi <= ch.Lo {
			t.Fatalf("chunk %d covers [%d,%d), want start %d", ci, ch.Lo, ch.Hi, next)
		}
		next = ch.Hi
		bb := geom.EmptyBBox()
		for i := ch.Lo; i < ch.Hi; i++ {
			bb = bb.ExtendPoint(pts[i])
		}
		if ch.BBox != bb {
			t.Fatalf("chunk %d bbox = %+v, want %+v", ci, ch.BBox, bb)
		}
	}
	if next != n {
		t.Fatalf("chunks end at %d, want %d", next, n)
	}
}

func TestFromPointsCopies(t *testing.T) {
	// The copy contract: FromPoints does not retain the input slice, so
	// mutating it afterwards cannot corrupt the dataset.
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	d := FromPoints(pts)
	pts[0] = geom.Point{X: -99, Y: -99}
	if d.Point(0) != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("dataset aliases the input slice: point 0 = %+v", d.Point(0))
	}
}
