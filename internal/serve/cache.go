package serve

import (
	"container/heap"
	"sync"
)

// Value is one cached HTTP payload, immutable once stored: hits serve the
// slice the first computation wrote, so repeats are byte-identical.
type Value struct {
	Body        []byte
	ContentType string
}

// CacheStats is a point-in-time snapshot of cache behaviour.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Uncacheable int64 `json:"uncacheable"` // values refused: larger than Capacity
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Capacity    int64 `json:"capacity_bytes"`
}

// HitRate returns hits/(hits+misses), 0 when the cache is untouched.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type entry struct {
	key  string
	val  Value
	size int64
	h    float64 // GreedyDual-Size priority: clock at the last touch + 1/size
	tick uint64  // sequence number of the last touch; orders equal priorities
	pos  int     // index in the heap
}

// evictHeap is a min-heap of the resident entries; its root is the next
// victim. Less uses < and > only: equal priorities fall through to tick.
type evictHeap []*entry

func (h evictHeap) Len() int { return len(h) }
func (h evictHeap) Less(i, j int) bool {
	return h[i].h < h[j].h || !(h[i].h > h[j].h) && h[i].tick < h[j].tick
}
func (h evictHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *evictHeap) Push(x any) { *h = append(*h, x.(*entry)) }
func (h *evictHeap) Pop() any {
	last := len(*h) - 1
	e := (*h)[last]
	(*h)[last], *h = nil, (*h)[:last]
	return e
}

// Cache is the result cache, keyed by the canonical request identity (see
// cacheKey): one lock, one index, one heap, one byte budget. Eviction is
// GreedyDual-Size with uniform cost: a Put or a hit sets the entry's priority
// to clock + 1/size, the victim is the smallest priority (least recently
// touched among equals), and the clock advances to the victim's priority. So
// equal sizes evict in exactly LRU order, and one large body cannot push out
// many small ones. A nil *Cache always misses: that is how caching is disabled.
type Cache struct {
	mu    sync.Mutex
	index map[string]*entry
	heap  evictHeap
	clock float64
	tick  uint64
	st    CacheStats // all live, under mu; Capacity is the budget
}

// NewCache returns a cache bounded at maxBytes of payload, nil if <= 0.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{index: make(map[string]*entry), st: CacheStats{Capacity: maxBytes}}
}

// Get returns the cached value for key, refreshing its priority.
func (c *Cache) Get(key string) (Value, bool) {
	if c == nil {
		return Value{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[key]
	if !ok {
		c.st.Misses++
		return Value{}, false
	}
	c.st.Hits++
	c.tick++
	e.h, e.tick = c.clock+1/float64(e.size), c.tick
	heap.Fix(&c.heap, e.pos)
	return e.val, true
}

// Put stores a value, first evicting the lowest priorities until it fits, and
// replaces a resident key. Only a value over the whole budget is refused.
func (c *Cache) Put(key string, v Value) {
	if c == nil {
		return
	}
	sz := int64(len(v.Body) + len(v.ContentType) + len(key)) // the rest is noise
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.st.Capacity {
		c.st.Uncacheable++
		return
	}
	if old, ok := c.index[key]; ok {
		c.drop(old)
	}
	for c.st.Bytes+sz > c.st.Capacity {
		c.clock = c.heap[0].h
		c.drop(c.heap[0])
		c.st.Evictions++
	}
	c.tick++
	e := &entry{key: key, val: v, size: sz, pos: len(c.heap),
		h: c.clock + 1/float64(sz), tick: c.tick}
	c.index[key] = e
	heap.Push(&c.heap, e)
	c.st.Entries++
	c.st.Bytes += sz
}

// drop removes a resident entry and its byte charge; the caller holds mu.
func (c *Cache) drop(e *entry) {
	heap.Remove(&c.heap, e.pos)
	delete(c.index, e.key)
	c.st.Entries--
	c.st.Bytes -= e.size
}

// invalidate drops the entries of every version of dataset name older than
// current (see keyIsStale), so results orphaned by a re-upload free their
// bytes at once. A flight that straddles the re-upload may still insert one
// stale key afterwards; nothing asks for it again and the clock ages it out.
func (c *Cache) invalidate(name string, current uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.index {
		if keyIsStale(key, name, current) {
			c.drop(e)
		}
	}
}

// Stats snapshots the cache counters and current occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}
