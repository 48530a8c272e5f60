package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"geostat/internal/obs"
	"geostat/internal/serve"
)

// TestNeighbourhoodMemoBodies: the snapshot-owned kd-tree and adjacency
// never change a response. Every Moran / General G (knn and band, rowstd on
// and off) and kNN-IDW body is byte-equal between a fresh server whose
// first tool request it is (cold memo), a server that has already served
// the requests before it (warm memo: the span says hit), and the same
// server after the dataset is uploaded again (a new snapshot, cold again).
// The builds counter moves once per snapshot for the tree and once per
// scheme for the adjacency.
func TestNeighbourhoodMemoBodies(t *testing.T) {
	const gen = "name=s&kind=csr&n=400&seed=11&field=true"
	requests := []struct {
		target string
		attr   string // span attribute carrying the memo status
		warm   string // its value when the requests run in this order on one snapshot
	}{
		{"/v1/moran?dataset=s&k=6&perms=19&seed=3", "moran.weights/memo", "miss"},
		{"/v1/generalg?dataset=s&k=6&perms=19&seed=4", "generalg.weights/memo", "hit"},
		{"/v1/moran?dataset=s&k=6&perms=19&seed=3&rowstd=false", "moran.weights/memo", "hit"},
		{"/v1/generalg?dataset=s&k=6&perms=19&seed=4&rowstd=true", "generalg.weights/memo", "hit"},
		{"/v1/moran?dataset=s&weights=band&radius=8&perms=19&seed=5", "moran.weights/memo", "miss"},
		{"/v1/generalg?dataset=s&weights=band&radius=8&perms=19&seed=6", "generalg.weights/memo", "hit"},
		{"/v1/generalg?dataset=s&weights=band&radius=8&perms=19&seed=6&rowstd=true", "generalg.weights/memo", "hit"},
		{"/v1/idw?dataset=s&method=knn&k=6&width=24&height=24", "idw.compute/tree", "hit"},
		{"/v1/idw?dataset=s&method=knn&k=5&width=24&height=24", "idw.compute/tree", "hit"},
	}
	get := func(srv *serve.Server, target string) (body []byte, attrs map[string]string) {
		t.Helper()
		rr := do(t, srv, http.MethodGet, target, nil)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") == "hit" {
			t.Fatalf("%s: status %d, X-Cache %q: want a computed 200", target, rr.Code, rr.Header().Get("X-Cache"))
		}
		var tree obs.SpanTree
		if err := json.Unmarshal(do(t, srv, http.MethodGet, "/debug/trace/last", nil).Body.Bytes(), &tree); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
		attrs = map[string]string{}
		for _, c := range tree.Children {
			for _, a := range c.Attrs {
				attrs[c.Name+"/"+a.Key] = a.Value
			}
		}
		return rr.Body.Bytes(), attrs
	}

	cold := make([][]byte, len(requests))
	for i, rq := range requests {
		srv := newServer(t, serve.Config{CacheBytes: 8 << 20})
		generate(t, srv, gen)
		var attrs map[string]string
		cold[i], attrs = get(srv, rq.target)
		if attrs[rq.attr] != "miss" {
			t.Fatalf("%s on a fresh server: %s = %q, want miss", rq.target, rq.attr, attrs[rq.attr])
		}
	}

	srv := newServer(t, serve.Config{CacheBytes: 8 << 20})
	builds := func(kind string) int {
		t.Helper()
		n, err := strconv.Atoi(scrape(t, srv)[`dataset_neighbourhood_builds_total{kind="`+kind+`"}`])
		if err != nil {
			t.Fatalf("dataset_neighbourhood_builds_total{kind=%q}: %v", kind, err)
		}
		return n
	}
	trees, adjs := builds("tree"), builds("adjacency")
	for upload := 1; upload <= 2; upload++ {
		generate(t, srv, gen) // the second time: same content, new version, new snapshot
		for i, rq := range requests {
			body, attrs := get(srv, rq.target)
			if !bytes.Equal(body, cold[i]) {
				t.Errorf("upload %d: %s differs from the cold-memo body:\n got %s\nwant %s", upload, rq.target, body, cold[i])
			}
			if attrs[rq.attr] != rq.warm {
				t.Errorf("upload %d: %s: %s = %q, want %s", upload, rq.target, rq.attr, attrs[rq.attr], rq.warm)
			}
		}
		if dt, da := builds("tree")-trees, builds("adjacency")-adjs; dt != upload || da != 2*upload {
			t.Errorf("after upload %d: %d tree and %d adjacency builds, want %d and %d", upload, dt, da, upload, 2*upload)
		}
	}
}
