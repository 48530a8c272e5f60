package serve

import (
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// sized returns a value whose charge under key is exactly size bytes.
func sized(key string, size int) Value {
	return Value{Body: make([]byte, size-len(key))}
}

// checkInvariants asserts what must hold after every operation: the byte
// account equals the sum of the resident sizes and is within the budget,
// and index, heap and Entries describe the same set, in heap order.
func checkInvariants(t testing.TB, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for i, e := range c.heap {
		sum += e.size
		if e.pos != i {
			t.Fatalf("entry %q records heap position %d, sits at %d", e.key, e.pos, i)
		}
		if c.index[e.key] != e {
			t.Fatalf("heap entry %q is not the index's entry", e.key)
		}
		if i > 0 && c.heap.Less(i, (i-1)/2) {
			t.Fatalf("heap order broken between %d and its parent", i)
		}
		if e.h < c.clock {
			t.Fatalf("entry %q has priority %g below the clock %g", e.key, e.h, c.clock)
		}
	}
	if c.st.Bytes != sum || sum > c.st.Capacity {
		t.Fatalf("Bytes = %d, resident sizes sum to %d, budget %d", c.st.Bytes, sum, c.st.Capacity)
	}
	if n := int64(len(c.index)); c.st.Entries != n || int64(len(c.heap)) != n {
		t.Fatalf("Entries = %d, index holds %d, heap holds %d", c.st.Entries, len(c.index), len(c.heap))
	}
}

// evictionOrder returns the resident keys in the order eviction would take
// them, without touching anything.
func evictionOrder(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := append(evictHeap(nil), c.heap...)
	sort.Slice(h, func(i, j int) bool { return h.Less(i, j) })
	keys := make([]string, len(h))
	for i, e := range h {
		keys[i] = e.key
	}
	return keys
}

// evictedBy runs op and returns the keys it removed, in eviction order.
func evictedBy(c *Cache, op func()) []string {
	before := evictionOrder(c)
	op()
	c.mu.Lock()
	defer c.mu.Unlock()
	var gone []string
	for _, k := range before {
		if _, ok := c.index[k]; !ok {
			gone = append(gone, k)
		}
	}
	return gone
}

// refLRU is the reference the new policy is held against: a byte-budget
// LRU list over one budget (insert at the front, evict from the back).
type refLRU struct {
	max, bytes int64
	order      []string // front = most recently used
	size       map[string]int64
}

func newRefLRU(max int64) *refLRU { return &refLRU{max: max, size: map[string]int64{}} }

func (r *refLRU) unlink(key string) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *refLRU) get(key string) bool {
	if _, ok := r.size[key]; !ok {
		return false
	}
	r.unlink(key)
	r.order = append([]string{key}, r.order...)
	return true
}

func (r *refLRU) put(key string, size int64) (evicted []string) {
	if size > r.max {
		return nil
	}
	if old, ok := r.size[key]; ok {
		r.unlink(key)
		r.bytes -= old
	}
	r.order = append([]string{key}, r.order...)
	r.size[key] = size
	r.bytes += size
	for r.bytes > r.max {
		back := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		r.bytes -= r.size[back]
		delete(r.size, back)
		evicted = append(evicted, back)
	}
	return evicted
}

func (r *refLRU) residents() []string {
	keys := append([]string(nil), r.order...)
	sort.Strings(keys)
	return keys
}

func residents(c *Cache) []string {
	keys := evictionOrder(c)
	sort.Strings(keys)
	return keys
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", Value{Body: []byte("payload"), ContentType: "text/plain"})
	v, ok := c.Get("a")
	if !ok || string(v.Body) != "payload" || v.ContentType != "text/plain" {
		t.Fatalf("got (%+v, %v), want the stored value", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 1<<20 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry / 1 MiB capacity", st)
	}
	if want := int64(len("a") + len("payload") + len("text/plain")); st.Bytes != want {
		t.Fatalf("Bytes = %d, want %d (key + body + content type)", st.Bytes, want)
	}
}

// TestCacheEvictsLRU: with equal sizes GreedyDual-Size is LRU. A seeded
// 10 000-op Get / Put sequence over more keys than fit is replayed on the
// cache and on the reference list; after every op both hold the same keys,
// every Put evicted the same keys in the same order, and both agree on
// hit or miss.
func TestCacheEvictsLRU(t *testing.T) {
	const (
		size   = 100
		budget = 10*size + size/2 // ten entries and a remainder no eleventh fits in
		keys   = 25
	)
	c, ref := NewCache(budget), newRefLRU(budget)
	r := rand.New(rand.NewSource(20))
	for op := 0; op < 10000; op++ {
		key := fmt.Sprintf("kdv|d@1|tile=%02d", r.Intn(keys))
		if r.Intn(3) == 0 {
			want := ref.put(key, size)
			got := evictedBy(c, func() { c.Put(key, sized(key, size)) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Put(%s) evicted %v, the LRU list %v", op, key, got, want)
			}
		} else if _, hit := c.Get(key); hit != ref.get(key) {
			t.Fatalf("op %d: Get(%s) hit = %v, the LRU list says %v", op, key, hit, !hit)
		}
		if got, want := residents(c), ref.residents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: resident %v, the LRU list holds %v", op, got, want)
		}
		checkInvariants(t, c)
	}
	if st := c.Stats(); st.Evictions == 0 || st.Entries != 10 {
		t.Fatalf("stats = %+v, want evictions and a full cache of 10", st)
	}
}

func TestCacheRecencySurvivesEviction(t *testing.T) {
	c := NewCache(250) // two 100-byte entries
	c.Put("a", sized("a", 100))
	c.Put("b", sized("b", 100))
	if _, ok := c.Get("a"); !ok { // a is now the more recent of the two
		t.Fatal("a missing after Put")
	}
	c.Put("c", sized("c", 100))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b (least recently used) survived past the budget")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted ahead of the least recently used entry", k)
		}
	}
}

// TestCacheLargeBodyDoesNotEvictManySmall is the failure the sharded LRU
// had, in one step: with ten small bodies and one large one resident, a
// second large body takes the first large body's place and leaves every
// small one, although all of them were touched before the large one.
func TestCacheLargeBodyDoesNotEvictManySmall(t *testing.T) {
	c := NewCache(10*22_000 + 310_000 + 1000)
	c.Put("json-0", sized("json-0", 310_000))
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("png-%d", i)
		c.Put(k, sized(k, 22_000))
	}
	if got := evictedBy(c, func() { c.Put("json-1", sized("json-1", 310_000)) }); !reflect.DeepEqual(got, []string{"json-0"}) {
		t.Fatalf("the second large body evicted %v, want only the first large body", got)
	}
	checkInvariants(t, c)
	// The clock has advanced, but not past the small bodies: a third
	// large one again evicts only the large one before it.
	if got := evictedBy(c, func() { c.Put("json-2", sized("json-2", 310_000)) }); !reflect.DeepEqual(got, []string{"json-1"}) {
		t.Fatalf("the third large body evicted %v, want only the second", got)
	}
}

type tileOp struct {
	key  string
	size int
}

// tileTrace is serve_tiles in miniature: n draws of a zipf(1.1) tile rank
// out of 85, each 70 % the small body of that tile (a 22 KB PNG) and 30 %
// the large one (a 310 KB JSON raster).
func tileTrace(seed int64, n int) []tileOp {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.1, 1, 84)
	ops := make([]tileOp, n)
	for i := range ops {
		tile := zipf.Uint64()
		if r.Float64() < 0.7 {
			ops[i] = tileOp{fmt.Sprintf("kdv|city@1|format=png&tile=%02d", tile), 22_000}
		} else {
			ops[i] = tileOp{fmt.Sprintf("kdv|city@1|format=json&tile=%02d", tile), 310_000}
		}
	}
	return ops
}

// replayTiles runs a trace the way the handler does (Get, on a miss Put)
// and returns the hit count and every eviction in order.
func replayTiles(t *testing.T, c *Cache, ops []tileOp) (hits int, evictions []string) {
	t.Helper()
	for _, o := range ops {
		if _, ok := c.Get(o.key); ok {
			hits++
			continue
		}
		evictions = append(evictions, evictedBy(c, func() { c.Put(o.key, sized(o.key, o.size)) })...)
		checkInvariants(t, c)
	}
	return hits, evictions
}

// TestCacheTileWorkload: on the miniature tile workload under the
// benchmark's 12 MiB, size-aware eviction hits at least as often as an
// LRU list with the same single budget, and keeps every small body it
// was ever given — 1.9 MB of PNGs that an LRU keeps pushing out.
func TestCacheTileWorkload(t *testing.T) {
	const budget = 12 << 20
	ops := tileTrace(7, 8000)
	c := NewCache(budget)
	hits, _ := replayTiles(t, c, ops)

	ref, refHits, small := newRefLRU(budget), 0, map[string]bool{}
	for _, o := range ops {
		if o.size < 100_000 {
			small[o.key] = true
		}
		if ref.get(o.key) {
			refHits++
		} else {
			ref.put(o.key, int64(o.size))
		}
	}
	t.Logf("hit ratio %.3f, reference LRU %.3f over %d ops", float64(hits)/float64(len(ops)), float64(refHits)/float64(len(ops)), len(ops))
	if hits < refHits {
		t.Errorf("%d hits, the reference LRU has %d on the same trace", hits, refHits)
	}
	now := map[string]bool{}
	for _, k := range residents(c) {
		now[k] = true
	}
	for k := range small {
		if !now[k] {
			t.Errorf("small body %s is not resident at the end", k)
		}
	}
	if st := c.Stats(); st.Evictions == 0 || st.Uncacheable != 0 {
		t.Errorf("stats = %+v, want evictions and nothing refused", st)
	}
}

// TestCacheDeterministicEvictions: the same operations give the same
// evictions in the same order — nothing depends on map order or time.
func TestCacheDeterministicEvictions(t *testing.T) {
	ops := tileTrace(8, 3000)
	run := func() (int, []string, []string) {
		c := NewCache(4 << 20)
		hits, evictions := replayTiles(t, c, ops)
		return hits, evictions, evictionOrder(c)
	}
	h1, e1, o1 := run()
	h2, e2, o2 := run()
	if h1 != h2 || !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(o1, o2) {
		t.Fatalf("two runs of one trace differ: %d / %d hits, %d / %d evictions", h1, h2, len(e1), len(e2))
	}
	if len(e1) == 0 {
		t.Fatal("the trace never evicted")
	}
}

// TestCacheOversizedValueNotStored: only a value larger than the whole
// budget is refused (and counted); one exactly at the budget is stored,
// evicting everything else.
func TestCacheOversizedValueNotStored(t *testing.T) {
	c := NewCache(1000)
	c.Put("small", sized("small", 100))
	c.Put("huge", sized("huge", 1001))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("a value larger than the budget was cached")
	}
	if st := c.Stats(); st.Uncacheable != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 uncacheable and the small entry untouched", st)
	}
	c.Put("exact", sized("exact", 1000))
	if _, ok := c.Get("exact"); !ok {
		t.Fatal("a value exactly at the budget was not cached")
	}
	if st := c.Stats(); st.Uncacheable != 1 || st.Entries != 1 || st.Bytes != 1000 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the budget-sized entry alone", st)
	}
	checkInvariants(t, c)
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c = NewCache(0); c != nil {
		t.Fatal("NewCache(0) should return nil")
	}
	c.Put("a", Value{Body: []byte("x")})
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.invalidate("a", 2)
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

// TestCacheReplaceSameKey: a Put of a resident key replaces the value,
// re-accounts its bytes and counts as a touch.
func TestCacheReplaceSameKey(t *testing.T) {
	c := NewCache(350)
	c.Put("k", Value{Body: []byte("one")})
	c.Put("k", Value{Body: []byte("three")})
	v, ok := c.Get("k")
	if !ok || string(v.Body) != "three" {
		t.Fatalf("got (%q, %v), want the replacement", v.Body, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != int64(len("k")+len("three")) {
		t.Fatalf("stats = %+v after replace, want 1 entry of %d bytes", st, len("k")+len("three"))
	}
	c.Put("k", sized("k", 100))
	c.Put("b", sized("b", 100))
	c.Put("k", sized("k", 100)) // k is again more recent than b
	if got := evictedBy(c, func() { c.Put("c", sized("c", 100)); c.Put("d", sized("d", 100)) }); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("evicted %v, want b: the replaced key was re-prioritised", got)
	}
	checkInvariants(t, c)
}

// TestCacheInvalidate: invalidate drops exactly the named dataset's older
// versions, frees their bytes, is not counted as eviction and leaves the
// clock (and so everyone else's standing) alone.
func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1 << 20)
	q, _ := url.ParseQuery("width=8")
	keep := []string{cacheKey("kdv", "survey", 5, q), cacheKey("kdv", "survey2", 2, q), cacheKey("idw", "cold", 3, q)}
	stale := []string{cacheKey("kdv", "survey", 1, q), cacheKey("moran", "survey", 4, q)}
	for _, k := range append(append([]string(nil), keep...), stale...) {
		c.Put(k, sized(k, 1000))
	}
	c.invalidate("survey", 5)
	checkInvariants(t, c)
	sort.Strings(keep)
	if got := residents(c); !reflect.DeepEqual(got, keep) {
		t.Fatalf("resident after invalidate: %v, want %v", got, keep)
	}
	if st := c.Stats(); st.Bytes != 3000 || st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 3 entries, 3000 bytes, no evictions", st)
	}
	if c.clock > 0 {
		t.Fatalf("invalidate advanced the clock to %g", c.clock)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", i%32)
				if i%3 == 0 {
					c.Put(key, Value{Body: []byte(key)})
				} else if v, ok := c.Get(key); ok && string(v.Body) != key {
					t.Errorf("goroutine %d: key %q returned body %q", g, key, v.Body)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	checkInvariants(t, c)
}

// FuzzCacheOps drives the index / heap pair with an arbitrary sequence of
// Get, Put and re-upload invalidations over eight keys of two datasets and
// a budget that holds only a few of them. Every two bytes are one op: the
// first picks the op and the key, the second the size or the dataset.
func FuzzCacheOps(f *testing.F) {
	// More seeds are committed under testdata/fuzz/FuzzCacheOps.
	f.Add([]byte{})
	f.Add([]byte{1, 10, 0, 0, 5, 20, 4, 0}) // put, hit, put, hit
	f.Add([]byte{1, 255, 1, 186, 0, 0})     // refused, then exactly at the budget
	f.Fuzz(func(t *testing.T, raw []byte) {
		const budget = 1500
		c := NewCache(budget)
		versions := [2]uint64{1, 1}
		for i := 0; i+1 < len(raw); i += 2 {
			slot := int(raw[i]>>2) % 8
			ds := slot % 2
			name := fmt.Sprintf("d%d", ds)
			key := fmt.Sprintf("kdv|%s@%d|k=%d", name, versions[ds], slot)
			switch raw[i] & 3 {
			case 0:
				c.Get(key)
			case 1, 2:
				size := len(key) + 8*int(raw[i+1])
				before := c.Stats().Uncacheable
				c.Put(key, sized(key, size))
				if size > budget {
					if c.Stats().Uncacheable != before+1 {
						t.Fatalf("op %d: a %d-byte value over the %d budget was not counted as refused", i/2, size, budget)
					}
				} else if v, ok := c.Get(key); !ok || len(v.Body) != size-len(key) {
					t.Fatalf("op %d: Get right after a fitting Put(%s, %d bytes): hit = %v, body %d bytes", i/2, key, size, ok, len(v.Body))
				}
			case 3:
				ds = int(raw[i+1]) % 2
				name = fmt.Sprintf("d%d", ds)
				versions[ds]++
				c.invalidate(name, versions[ds])
				for _, k := range evictionOrder(c) {
					if keyIsStale(k, name, versions[ds]) {
						t.Fatalf("op %d: %s survived the re-upload of %s to version %d", i/2, k, name, versions[ds])
					}
				}
			}
			checkInvariants(t, c)
		}
	})
}

func TestCacheKeyCanonicalOrdering(t *testing.T) {
	a, _ := url.ParseQuery("width=64&height=32&seed=1")
	b, _ := url.ParseQuery("seed=1&width=64&height=32")
	ka := cacheKey("kdv", "d", 3, a)
	kb := cacheKey("kdv", "d", 3, b)
	if ka != kb {
		t.Fatalf("query ordering changed the key:\n  %s\n  %s", ka, kb)
	}
	if kc := cacheKey("kdv", "d", 4, a); kc == ka {
		t.Fatal("version bump did not change the key")
	}
	c, _ := url.ParseQuery("width=64&height=32&seed=2")
	if kc := cacheKey("kdv", "d", 3, c); kc == ka {
		t.Fatal("seed change did not change the key")
	}
	if kc := cacheKey("idw", "d", 3, a); kc == ka {
		t.Fatal("tool change did not change the key")
	}
}

func TestCacheKeyRepeatedParams(t *testing.T) {
	a, _ := url.ParseQuery("tag=b&tag=a")
	b, _ := url.ParseQuery("tag=a&tag=b")
	if cacheKey("t", "d", 1, a) != cacheKey("t", "d", 1, b) {
		t.Fatal("repeated-parameter ordering changed the key")
	}
}

// TestKeyIsStale holds keyIsStale to the keys cacheKey builds: stale means
// this dataset, an older version — whatever the tool, the parameters, or
// another dataset's name look like.
func TestKeyIsStale(t *testing.T) {
	q, _ := url.ParseQuery("dataset=d&bbox=0,0,1,1&note=d@1|x")
	cases := []struct {
		tool, dataset string
		version       uint64
		name          string
		current       uint64
		want          bool
	}{
		{"kdv", "d", 3, "d", 4, true},
		{"kdv", "d", 4, "d", 4, false}, // the new snapshot's own results stay
		{"kdv", "d", 5, "d", 4, false},
		{"moran", "d", 9, "d", 10, true},
		{"kdv", "d2", 3, "d", 4, false}, // a longer name with the same prefix
		{"kdv", "d", 3, "d2", 4, false},
		{"kdv", "xd", 3, "d", 4, false},
		{"d", "other", 1, "d", 4, false},      // the tool is not the dataset
		{"kdv", "a|b@c", 3, "a|b@c", 4, true}, // a name using the grammar's own separators
		{"kdv", "d@1|x", 7, "d", 4, true},     // the documented over-match: costs d@1|x a miss
		{"kdv", "", 3, "", 4, true},
	}
	for _, tc := range cases {
		key := cacheKey(tc.tool, tc.dataset, tc.version, q)
		if got := keyIsStale(key, tc.name, tc.current); got != tc.want {
			t.Errorf("keyIsStale(%q, %q, %d) = %v, want %v", key, tc.name, tc.current, got, tc.want)
		}
	}
	for _, key := range []string{"", "kdv", "kdv|", "kdv|d", "kdv|d@", "kdv|d@x|", "kdv|d@-1|"} {
		if keyIsStale(key, "d", 4) {
			t.Errorf("keyIsStale(%q) = true for a key outside the grammar", key)
		}
	}
}
