package kdtree

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"geostat/internal/geom"
)

// refKNearest is the query as it stood before KNearest took caller-owned
// scratch, kept as the reference that defines "the recorded order": it
// recomputes every node's MinDist2 on entry, pushes every leaf point
// through the heap's own reject test, pops into freshly allocated result
// slices. Tie order under equal d² is whatever this does.
func refKNearest(t *Tree, q geom.Point, k int) (idx []int, d2 []float64) {
	if k <= 0 || len(t.nodes) == 0 {
		return nil, nil
	}
	if k > len(t.xs) {
		k = len(t.xs)
	}
	h := &refHeap{}
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &t.nodes[ni]
		if len(h.d2) == k && n.box.MinDist2(q) > h.d2[0] {
			return
		}
		if n.left < 0 {
			for i := n.lo; i < n.hi; i++ {
				h.push(t.idx[i], t.dist2(i, q), k)
			}
			return
		}
		l, r := n.left, n.right
		if t.nodes[l].box.MinDist2(q) > t.nodes[r].box.MinDist2(q) {
			l, r = r, l
		}
		walk(l)
		walk(r)
	}
	walk(0)
	idx, d2 = make([]int, len(h.d2)), make([]float64, len(h.d2))
	for i := len(h.d2) - 1; i >= 0; i-- {
		idx[i], d2[i] = h.pop()
	}
	return idx, d2
}

// refHeap is the reference's max-heap on d².
type refHeap struct {
	idx []int
	d2  []float64
}

func (h *refHeap) push(idx int, d2 float64, k int) {
	if len(h.d2) < k {
		h.idx, h.d2 = append(h.idx, idx), append(h.d2, d2)
		for i := len(h.d2) - 1; i > 0; {
			parent := (i - 1) / 2
			if h.d2[parent] >= h.d2[i] {
				break
			}
			h.swap(i, parent)
			i = parent
		}
		return
	}
	if d2 >= h.d2[0] {
		return
	}
	h.idx[0], h.d2[0] = idx, d2
	h.down()
}

func (h *refHeap) pop() (int, float64) {
	idx, d2 := h.idx[0], h.d2[0]
	n := len(h.d2) - 1
	h.idx[0], h.d2[0] = h.idx[n], h.d2[n]
	h.idx, h.d2 = h.idx[:n], h.d2[:n]
	h.down()
	return idx, d2
}

func (h *refHeap) down() {
	for i, n := 0, len(h.d2); ; {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && h.d2[l] > h.d2[big] {
			big = l
		}
		if r < n && h.d2[r] > h.d2[big] {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

func (h *refHeap) swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.d2[i], h.d2[j] = h.d2[j], h.d2[i]
}

// checkKNearest holds one KNearest answer to the reference (same indices in
// the same order, same bits of d²) and to brute force (the k smallest d²,
// each index at its stated distance and returned once).
func checkKNearest(t testing.TB, tr *Tree, pts []geom.Point, q geom.Point, k int, s *Scratch) {
	t.Helper()
	idx, d2 := tr.KNearest(q, k, s)
	wantIdx, wantD2 := refKNearest(tr, q, k)
	if len(idx) != len(wantIdx) || (len(idx) > 0 && !reflect.DeepEqual(idx, wantIdx)) || !sameBits(d2, wantD2) {
		t.Fatalf("KNearest(%v, %d) over %d points = %v %v, reference %v %v", q, k, len(pts), idx, d2, wantIdx, wantD2)
	}
	brute := make([]float64, len(pts))
	for i, p := range pts {
		brute[i] = p.Dist2(q)
	}
	sorted := append([]float64(nil), brute...)
	sort.Float64s(sorted)
	if want := max(0, min(k, len(pts))); len(idx) != want || !sameBits(d2, sorted[:want]) {
		t.Fatalf("KNearest(%v, %d) over %d points: d² = %v, brute force %v", q, k, len(pts), d2, sorted[:want])
	}
	seen := map[int]bool{}
	for j, i := range idx {
		if seen[i] || math.Float64bits(brute[i]) != math.Float64bits(d2[j]) {
			t.Fatalf("KNearest(%v, %d): index %d repeated or not at d² %v", q, k, i, d2[j])
		}
		seen[i] = true
	}
}

// TestKNearestDifferential: the scratch-based query equals the reference
// and brute force on every plane fixture (unit lattice with ties at every
// k, more coincident points than a leaf holds, UTM offsets, n ∈ {0, 1}),
// for k ∈ {1, …, n, > n} — through ONE scratch per fixture, so a result
// also never depends on what the scratch held before (a larger k, a
// smaller one, another query's heap).
func TestKNearestDifferential(t *testing.T) {
	for name, pts := range planeFixtures() {
		t.Run(name, func(t *testing.T) {
			tr := New(pts)
			n := len(pts)
			var s Scratch
			for _, q := range planeQueries(pts) {
				for _, k := range []int{n + 3, 1, leafSize + 1, 0, 5, n, leafSize, 2, n - 1} {
					checkKNearest(t, tr, pts, q, k, &s)
				}
			}
			if i, d := tr.Nearest(geom.Point{X: 1, Y: 1}); n > 0 {
				wantIdx, wantD2 := refKNearest(tr, geom.Point{X: 1, Y: 1}, 1)
				if i != wantIdx[0] || math.Float64bits(d) != math.Float64bits(math.Sqrt(wantD2[0])) {
					t.Fatalf("Nearest = %d %v, reference %d %v", i, d, wantIdx[0], math.Sqrt(wantD2[0]))
				}
			}
		})
	}
}

// TestKNearestWarmScratchAllocs: once a scratch has served its largest k,
// a query through it allocates nothing — the contract the weight-matrix
// and interpolation loops size their per-worker scratch by.
func TestKNearestWarmScratchAllocs(t *testing.T) {
	pts := planeFixtures()["clustered"]
	tr := New(pts)
	qs := planeQueries(pts)
	var s Scratch
	tr.KNearest(qs[0], 9, &s) // warm
	sink := 0
	allocs := testing.AllocsPerRun(50, func() {
		for _, q := range qs {
			for _, k := range []int{9, 1, 4} {
				idx, _ := tr.KNearest(q, k, &s)
				sink += idx[0]
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("KNearest through a warm scratch allocated %v times per run (sink %d)", allocs, sink)
	}
}

// FuzzKNearestBruteForce builds a tree from fuzzer-chosen points snapped to
// a coarse lattice (so ties and coincident points are the norm, not the
// exception) and holds one query to the reference and to brute force.
func FuzzKNearestBruteForce(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, uint8(2), uint8(5), uint8(5))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(17), uint8(7), uint8(7))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0))
	f.Add([]byte{200, 13}, uint8(9), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, k, qx, qy uint8) {
		pts := make([]geom.Point, len(raw)/2)
		for i := range pts {
			pts[i] = geom.Point{X: float64(raw[2*i] % 16), Y: float64(raw[2*i+1] % 16)}
		}
		q := geom.Point{X: float64(qx)/8 - 4, Y: float64(qy)/8 - 4}
		var s Scratch
		tr := New(pts)
		checkKNearest(t, tr, pts, q, int(k), &s)
		checkKNearest(t, tr, pts, q, 1, &s)
	})
}
