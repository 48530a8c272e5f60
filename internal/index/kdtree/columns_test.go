package kdtree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"geostat/internal/geom"
)

// planeFixtures are the inputs the neighbourhood plane is held to: the
// shapes that stress build order (ties on the split axis, more coincident
// points than a leaf holds) and the sizes that stress the edges.
func planeFixtures() map[string][]geom.Point {
	r := rand.New(rand.NewSource(11))
	uniform := randomPoints(r, 500)
	clustered := make([]geom.Point, 600)
	for i := range clustered {
		c := geom.Point{X: 20 + 60*float64(i%3)/2, Y: 30 + 40*float64(i%2)}
		clustered[i] = geom.Point{X: c.X + r.NormFloat64()*2, Y: c.Y + r.NormFloat64()*2}
	}
	coincident := make([]geom.Point, 40) // more than leafSize
	for i := range coincident {
		coincident[i] = geom.Point{X: 3, Y: 4}
	}
	utm := make([]geom.Point, len(uniform))
	for i, p := range uniform {
		utm[i] = geom.Point{X: p.X + 5e5, Y: p.Y + 4.2e6}
	}
	return map[string][]geom.Point{
		"uniform":    uniform,
		"clustered":  clustered,
		"lattice":    lattice(12),
		"coincident": coincident,
		"utm":        utm,
		"empty":      nil,
		"single":     {{X: 7, Y: -2}},
	}
}

// lattice is the side×side unit lattice: every query has ties at every k.
func lattice(side int) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

func columnsOf(pts []geom.Point) (xs, ys []float64) {
	xs, ys = make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys
}

// planeQueries are the query sites of a fixture: some of its own points
// (distance-0 hits), and sites inside and outside its bounds.
func planeQueries(pts []geom.Point) []geom.Point {
	r := rand.New(rand.NewSource(12))
	box := geom.NewBBox(pts)
	if box.IsEmpty() {
		box = geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	w, h := math.Max(box.Width(), 1), math.Max(box.Height(), 1)
	var qs []geom.Point
	for i := 0; i < len(pts); i += 1 + len(pts)/25 {
		qs = append(qs, pts[i])
	}
	for i := 0; i < 25; i++ {
		qs = append(qs, geom.Point{X: box.MinX + (r.Float64()*1.4-0.2)*w, Y: box.MinY + (r.Float64()*1.4-0.2)*h})
	}
	return qs
}

// TestColumnsEqualPointsEqualBruteForce: a tree built from columns answers
// every query exactly as the tree built from the equivalent point slice —
// same indices in the same order, the same Float64bits of d² — and both
// agree with brute force (as sets where distances tie).
func TestColumnsEqualPointsEqualBruteForce(t *testing.T) {
	for name, pts := range planeFixtures() {
		xs, ys := columnsOf(pts)
		ta, tb := New(pts), NewColumns(xs, ys)
		n := len(pts)
		if ta.Len() != n || tb.Len() != n || ta.Bounds() != tb.Bounds() {
			t.Fatalf("%s: Len/Bounds differ: %d %v vs %d %v", name, ta.Len(), ta.Bounds(), tb.Len(), tb.Bounds())
		}
		radii := []float64{0, 0.5, 1, math.Sqrt2, 7.5, 1e3}
		for _, q := range planeQueries(pts) {
			brute := make([]float64, n)
			for i, p := range pts {
				brute[i] = p.Dist2(q)
			}
			sorted := append([]float64(nil), brute...)
			sort.Float64s(sorted)
			for _, k := range []int{1, 5, leafSize, leafSize + 1, n, n + 3} {
				ia, da := ta.KNearest(q, k, new(Scratch))
				ib, db := tb.KNearest(q, k, new(Scratch))
				if !reflect.DeepEqual(ia, ib) || !sameBits(da, db) {
					t.Fatalf("%s: KNearest(%v, %d): points-built %v %v, columns-built %v %v", name, q, k, ia, da, ib, db)
				}
				want := k
				if want > n {
					want = n
				}
				if len(ib) != want || !sameBits(db, sorted[:want]) {
					t.Fatalf("%s: KNearest(%v, %d) d² = %v, brute force %v", name, q, k, db, sorted[:want])
				}
				seen := map[int]bool{}
				for j, i := range ib {
					if seen[i] || math.Float64bits(brute[i]) != math.Float64bits(db[j]) {
						t.Fatalf("%s: KNearest(%v, %d): index %d repeated or not at d² %v", name, q, k, i, db[j])
					}
					seen[i] = true
				}
			}
			for _, rad := range radii {
				ra, rb := ta.RangeQuery(q, rad, nil), tb.RangeQuery(q, rad, nil)
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("%s: RangeQuery(%v, %v): points-built %v, columns-built %v", name, q, rad, ra, rb)
				}
				var want []int
				for i, d2 := range brute {
					if d2 <= rad*rad {
						want = append(want, i)
					}
				}
				got := append([]int(nil), rb...)
				sort.Ints(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RangeQuery(%v, %v) = %v, brute force %v", name, q, rad, got, want)
				}
				if ca, cb := ta.RangeCount(q, rad), tb.RangeCount(q, rad); ca != len(want) || cb != len(want) {
					t.Fatalf("%s: RangeCount(%v, %v) = %d / %d, brute force %d", name, q, rad, ca, cb, len(want))
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// latticeDigest hashes every answer a tree over the 12×12 unit lattice
// gives to a fixed query set: KNearest indices in order with the bits of
// d², RangeQuery indices in traversal order, RangeCount. On a lattice
// every k cuts through a tie, so the digest moves if the build makes one
// comparison or one swap differently.
func latticeDigest(tr *Tree) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, q := range append(lattice(12), geom.Point{X: 5.5, Y: 5.5}, geom.Point{X: -3, Y: 14.25}) {
		for _, k := range []int{1, 4, 8, 9, 25, 144} {
			idx, d2 := tr.KNearest(q, k, new(Scratch))
			for j, i := range idx {
				put(uint64(i))
				put(math.Float64bits(d2[j]))
			}
		}
		for _, rad := range []float64{1, math.Sqrt2, 2.5} {
			for _, i := range tr.RangeQuery(q, rad, nil) {
				put(uint64(i))
			}
			put(uint64(tr.RangeCount(q, rad)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestLatticeDigestPinned holds both constructors to the digest recorded
// from the build that stored a private []geom.Point (never regenerate it
// with the current code).
func TestLatticeDigestPinned(t *testing.T) {
	const want = "956c4a761052a85f"
	pts := lattice(12)
	xs, ys := columnsOf(pts)
	if got := latticeDigest(New(pts)); got != want {
		t.Errorf("New: lattice digest %s, pinned %s", got, want)
	}
	if got := latticeDigest(NewColumns(xs, ys)); got != want {
		t.Errorf("NewColumns: lattice digest %s, pinned %s", got, want)
	}
}
