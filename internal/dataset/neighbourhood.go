package dataset

import (
	"sync"
	"sync/atomic"

	"geostat/internal/index/kdtree"
)

// neighbourhood memoises the structures a dataset's coordinates alone
// determine. Coordinates never change after construction (SetValues /
// SetTimes / SetValues attach columns; Clone / Subset / FilterBox build
// fresh datasets, whose memos start empty), so nothing here is ever
// invalidated: a re-upload makes a new snapshot and the old one's memo
// goes with it to the GC.
type neighbourhood struct {
	treeOnce sync.Once
	tree     *kdtree.Tree

	mu  sync.Mutex
	adj *adjacencySlot // the last adjacency asked for, nil before the first
}

// AdjacencyKey names one neighbour structure over a dataset: the scheme
// ("knn", "band") and its parameter (k, or the radius's float64 bits).
type AdjacencyKey struct {
	Scheme string
	Param  uint64
}

// Adjacency is the CSR pattern of a neighbour structure: the neighbours of
// site i are Col[Off[i]:Off[i+1]]. It is shared between every caller that
// asks a dataset for the same key and must not be written to.
type Adjacency struct {
	Off, Col []int32
}

type adjacencySlot struct {
	key  AdjacencyKey
	once sync.Once
	adj  *Adjacency
	err  error
}

// adjacencyRetainPerPoint bounds what a dataset keeps: a pattern with more
// than this many neighbours per point on average is handed to its caller
// and not retained, so a snapshot holds O(n) beyond its columns whatever
// radius a request names. 32 is four times the serving default k = 8 and
// covers any kNN scheme in use; a denser band is rebuilt per call, as every
// adjacency was before the memo.
const adjacencyRetainPerPoint = 32

// builds counts memo misses process-wide, for NeighbourhoodBuilds.
var builds struct{ tree, adjacency atomic.Int64 }

// NeighbourhoodBuilds returns how many kd-trees and adjacency patterns
// datasets of this process have built (memo misses; a hit builds nothing).
func NeighbourhoodBuilds() (tree, adjacency int64) {
	return builds.tree.Load(), builds.adjacency.Load()
}

// Tree returns the kd-tree over the dataset's coordinates, building it on
// first use (concurrent first callers build once); built reports whether
// this call did. The tree is read-only and shared.
func (d *Dataset) Tree() (t *kdtree.Tree, built bool) {
	d.nb.treeOnce.Do(func() {
		d.nb.tree = kdtree.NewColumns(d.x, d.y)
		builds.tree.Add(1)
		built = true
	})
	return d.nb.tree, built
}

// Adjacency returns the neighbour pattern named by key, calling build for
// it unless the dataset's one slot already holds that key; hit reports
// whether it did. Concurrent callers of one key share a single build. A
// different key replaces the slot (the serving mix alternates statistics
// over one scheme, so one slot is the whole working set); a failed build,
// or a pattern denser than adjacencyRetainPerPoint, is returned but not
// kept.
func (d *Dataset) Adjacency(key AdjacencyKey, build func() (*Adjacency, error)) (adj *Adjacency, hit bool, err error) {
	nb := &d.nb
	nb.mu.Lock()
	s := nb.adj
	if s == nil || s.key != key {
		s = &adjacencySlot{key: key}
		nb.adj = s
	}
	nb.mu.Unlock()

	hit = true
	s.once.Do(func() {
		hit = false
		builds.adjacency.Add(1)
		s.adj, s.err = build()
		if s.err != nil || len(s.adj.Col) > adjacencyRetainPerPoint*d.N() {
			nb.mu.Lock()
			if nb.adj == s {
				nb.adj = nil
			}
			nb.mu.Unlock()
		}
	})
	return s.adj, hit, s.err
}
