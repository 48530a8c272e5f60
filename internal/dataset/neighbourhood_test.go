package dataset

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"geostat/internal/geom"
)

func memoDataset(n int) *Dataset {
	return UniformCSR(rand.New(rand.NewSource(3)), n, geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
}

// pattern is a stand-in adjacency with nnz entries; the memo never looks
// inside one beyond len(Col).
func pattern(n, nnz int) *Adjacency {
	return &Adjacency{Off: make([]int32, n+1), Col: make([]int32, nnz)}
}

// TestTreeBuiltOncePerSnapshot: the kd-tree is built by the first Tree call
// only, survives the column setters (they do not touch coordinates), and
// every dataset derived from the snapshot starts with an empty memo.
func TestTreeBuiltOncePerSnapshot(t *testing.T) {
	d := memoDataset(200)
	before, _ := NeighbourhoodBuilds()
	t1, built := d.Tree()
	if !built || t1.Len() != d.N() {
		t.Fatalf("first Tree: built=%v Len=%d, want a fresh tree over %d points", built, t1.Len(), d.N())
	}
	vals := make([]float64, d.N())
	if err := errors.Join(d.SetValues(vals), d.SetTimes(vals)); err != nil {
		t.Fatal(err)
	}
	if t2, built := d.Tree(); built || t2 != t1 {
		t.Fatalf("Tree after SetValues/SetTimes: built=%v, same tree=%v", built, t2 == t1)
	}
	if after, _ := NeighbourhoodBuilds(); after-before != 1 {
		t.Fatalf("tree builds counted: %d, want 1", after-before)
	}

	key := AdjacencyKey{Scheme: "knn", Param: 4}
	if _, hit, _ := d.Adjacency(key, func() (*Adjacency, error) { return pattern(d.N(), 4*d.N()), nil }); hit {
		t.Fatal("first Adjacency reported a hit")
	}
	derived := map[string]*Dataset{
		"Clone":     d.Clone(),
		"Subset":    d.Subset([]int{0, 1, 2, 3, 4, 5}),
		"FilterBox": d.FilterBox(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}),
	}
	for name, c := range derived {
		if tc, built := c.Tree(); !built || tc == t1 {
			t.Errorf("%s: Tree built=%v shared=%v, want its own fresh tree", name, built, tc == t1)
		}
		if _, hit, _ := c.Adjacency(key, func() (*Adjacency, error) { return pattern(c.N(), 0), nil }); hit {
			t.Errorf("%s: inherited the adjacency slot", name)
		}
	}
}

// TestAdjacencySlot walks the one-slot policy: a repeated key is served
// from the slot, another key replaces it, an error or a pattern denser
// than adjacencyRetainPerPoint·n is handed back but not kept.
func TestAdjacencySlot(t *testing.T) {
	d := memoDataset(100)
	n := d.N()
	builds := 0
	ask := func(key AdjacencyKey, adj *Adjacency, err error) (*Adjacency, bool, error) {
		return d.Adjacency(key, func() (*Adjacency, error) { builds++; return adj, err })
	}
	k4, k5 := AdjacencyKey{Scheme: "knn", Param: 4}, AdjacencyKey{Scheme: "knn", Param: 5}
	band4 := AdjacencyKey{Scheme: "band", Param: 4}
	_, countBefore := NeighbourhoodBuilds()

	p4 := pattern(n, 4*n)
	if got, hit, err := ask(k4, p4, nil); got != p4 || hit || err != nil {
		t.Fatalf("first k=4: %p hit=%v err=%v", got, hit, err)
	}
	if got, hit, _ := ask(k4, pattern(n, 0), nil); got != p4 || !hit || builds != 1 {
		t.Fatalf("second k=4: same pattern=%v hit=%v builds=%d, want a hit and no build", got == p4, hit, builds)
	}
	if _, hit, _ := ask(band4, pattern(n, n), nil); hit {
		t.Fatal("band with Param 4 hit the knn k=4 slot: the scheme is part of the key")
	}
	p5 := pattern(n, 5*n)
	if got, hit, _ := ask(k5, p5, nil); got != p5 || hit {
		t.Fatalf("k=5 after band: hit=%v", hit)
	}
	if _, hit, _ := ask(k4, pattern(n, 4*n), nil); hit {
		t.Fatal("k=4 still served after k=5 replaced the slot")
	}

	boom := errors.New("boom")
	if got, hit, err := ask(k5, nil, boom); got != nil || hit || err != boom {
		t.Fatalf("failing build: %v hit=%v err=%v", got, hit, err)
	}
	if _, hit, err := ask(k5, p5, nil); hit || err != nil {
		t.Fatalf("after a failed build: hit=%v err=%v, want a clean rebuild", hit, err)
	}

	atLimit, over := pattern(n, adjacencyRetainPerPoint*n), pattern(n, adjacencyRetainPerPoint*n+1)
	dense := AdjacencyKey{Scheme: "band", Param: 99}
	if got, hit, _ := ask(dense, over, nil); got != over || hit {
		t.Fatalf("dense pattern: returned=%v hit=%v", got == over, hit)
	}
	if _, hit, _ := ask(dense, atLimit, nil); hit {
		t.Fatal("a pattern over the retention bound was kept")
	}
	if got, hit, _ := ask(dense, over, nil); got != atLimit || !hit {
		t.Fatal("a pattern at the retention bound was not kept")
	}
	if _, countAfter := NeighbourhoodBuilds(); int(countAfter-countBefore) != builds {
		t.Fatalf("adjacency builds counted %d, build ran %d times", countAfter-countBefore, builds)
	}
}

// TestNeighbourhoodConcurrentFirstUse: 16 goroutines asking a cold
// snapshot for its tree and for one adjacency key get one build of each
// and all see the same result (run under -race).
func TestNeighbourhoodConcurrentFirstUse(t *testing.T) {
	d := memoDataset(500)
	key := AdjacencyKey{Scheme: "knn", Param: 8}
	var adjBuilds, treeBuilds, hits atomic.Int64
	trees := make([]any, 16)
	adjs := make([]*Adjacency, 16)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range trees {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			tr, built := d.Tree()
			if built {
				treeBuilds.Add(1)
			}
			adj, hit, err := d.Adjacency(key, func() (*Adjacency, error) {
				adjBuilds.Add(1)
				return pattern(d.N(), 8*d.N()), nil
			})
			if err != nil {
				t.Error(err)
			}
			if hit {
				hits.Add(1)
			}
			trees[g], adjs[g] = tr, adj
		}()
	}
	start.Done()
	done.Wait()
	if treeBuilds.Load() != 1 || adjBuilds.Load() != 1 || hits.Load() != 15 {
		t.Fatalf("tree builds %d, adjacency builds %d, hits %d; want 1, 1, 15", treeBuilds.Load(), adjBuilds.Load(), hits.Load())
	}
	for g := range trees {
		if trees[g] != trees[0] || adjs[g] != adjs[0] || adjs[g] == nil {
			t.Fatalf("goroutine %d saw a different tree or pattern", g)
		}
	}
}
