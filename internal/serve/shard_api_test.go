package serve_test

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geostat/internal/serve"
	"geostat/internal/shard"
)

// The shard coordinator's server-side surface: the dataset digest
// endpoint, windowed (tile=) KDV evaluation, and explicit-thresholds
// K-function band evaluation. These tests pin the exactness contracts the
// coordinator's merge step depends on.

type kfuncResp struct {
	Dataset string    `json:"dataset"`
	S       []float64 `json:"s"`
	K       []float64 `json:"k"`
	Lo      []float64 `json:"lo"`
	Hi      []float64 `json:"hi"`
	Sims    int       `json:"sims"`
	Regimes []string  `json:"regimes"`
}

func getJSON(t *testing.T, srv *serve.Server, target string, out any) {
	t.Helper()
	rr := do(t, srv, http.MethodGet, target, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rr.Code, rr.Body.String())
	}
	if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: decode: %v", target, err)
	}
}

func TestDatasetDigestEndpoint(t *testing.T) {
	srv := newServer(t, serve.Config{})
	generate(t, srv, "name=d&kind=clusters&n=300&seed=5")

	var first, again serve.DatasetInfo
	getJSON(t, srv, "/v1/datasets/d/digest", &first)
	if len(first.Digest) != 64 {
		t.Fatalf("digest %q is not hex sha256", first.Digest)
	}
	if first.N != 300 || first.Name != "d" {
		t.Fatalf("unexpected info %+v", first)
	}
	getJSON(t, srv, "/v1/datasets/d/digest", &again)
	if again.Digest != first.Digest || again.Version != first.Version {
		t.Fatalf("digest not stable: %+v vs %+v", first, again)
	}

	// Same generation parameters → same bits → same digest, higher version.
	generate(t, srv, "name=d&kind=clusters&n=300&seed=5")
	var re serve.DatasetInfo
	getJSON(t, srv, "/v1/datasets/d/digest", &re)
	if re.Digest != first.Digest {
		t.Fatalf("identical re-upload changed digest: %s vs %s", re.Digest, first.Digest)
	}
	if re.Version <= first.Version {
		t.Fatalf("re-upload did not bump version: %d vs %d", re.Version, first.Version)
	}

	// Different content → different digest.
	generate(t, srv, "name=d2&kind=clusters&n=300&seed=6")
	var other serve.DatasetInfo
	getJSON(t, srv, "/v1/datasets/d2/digest", &other)
	if other.Digest == first.Digest {
		t.Fatal("different datasets share a digest")
	}

	if rr := do(t, srv, http.MethodGet, "/v1/datasets/nope/digest", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", rr.Code)
	}
}

func TestKDVTileWindowBitIdentical(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=ev&kind=clusters&n=400&seed=9")

	const base = "/v1/kdv?dataset=ev&method=naive&kernel=quartic&bandwidth=7&width=24&height=20&bbox=0,0,100,100"
	var full shard.KDVResult
	getJSON(t, srv, base, &full)
	if full.Width != 24 || full.Height != 20 {
		t.Fatalf("full raster %dx%d", full.Width, full.Height)
	}

	tiles := []struct{ x0, y0, w, h int }{
		{0, 0, 24, 20},
		{0, 0, 9, 7},
		{9, 7, 15, 13},
		{23, 19, 1, 1},
	}
	for _, tl := range tiles {
		var tile shard.KDVResult
		getJSON(t, srv, base+joinTile(tl.x0, tl.y0, tl.w, tl.h), &tile)
		if tile.Width != tl.w || tile.Height != tl.h {
			t.Fatalf("tile %+v: got %dx%d", tl, tile.Width, tile.Height)
		}
		for iy := 0; iy < tl.h; iy++ {
			for ix := 0; ix < tl.w; ix++ {
				want := full.Values[(tl.y0+iy)*full.Width+tl.x0+ix]
				have := tile.Values[iy*tl.w+ix]
				if math.Float64bits(want) != math.Float64bits(have) {
					t.Fatalf("tile %+v pixel (%d,%d): %x != %x",
						tl, ix, iy, math.Float64bits(have), math.Float64bits(want))
				}
			}
		}
	}

	// Worker /metrics must expose the tile counter for the smoke gate.
	metrics := do(t, srv, http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "shard_tiles_total") {
		t.Fatal("/metrics lacks shard_tiles_total after tile requests")
	}
}

// TestKDVF64MatchesJSON: format=f64 is the format=json payload with each
// value as its 8 raw bytes, for the full raster and for a tile.
func TestKDVF64MatchesJSON(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=ev&kind=clusters&n=400&seed=9")

	const base = "/v1/kdv?dataset=ev&method=naive&kernel=quartic&bandwidth=7&width=24&height=20&bbox=0,0,100,100"
	for _, target := range []string{base, base + joinTile(9, 7, 15, 13)} {
		var js, bin shard.KDVResult
		getJSON(t, srv, target, &js)
		rr := do(t, srv, http.MethodGet, target+"&format=f64", nil)
		if rr.Code != http.StatusOK || rr.Header().Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("GET %s&format=f64: status %d, Content-Type %q", target, rr.Code, rr.Header().Get("Content-Type"))
		}
		body := rr.Body.Bytes()
		if err := bin.UnmarshalBinary(body); err != nil {
			t.Fatalf("GET %s&format=f64: %v", target, err)
		}
		head, _, _ := strings.Cut(string(body), "\n")
		if want := len(head) + 1 + 8*js.Width*js.Height; len(body) != want {
			t.Errorf("%s: f64 body is %d bytes, want %d", target, len(body), want)
		}
		bits := func(r shard.KDVResult) []uint64 {
			b := []uint64{math.Float64bits(r.Min), math.Float64bits(r.Max), math.Float64bits(r.Sum)}
			for _, v := range r.Values {
				b = append(b, math.Float64bits(v))
			}
			return b
		}
		if !slices.Equal(bits(bin), bits(js)) || bin.Dataset != js.Dataset || bin.Method != js.Method ||
			bin.Width != js.Width || bin.Height != js.Height {
			t.Errorf("%s: format=f64 differs from format=json", target)
		}
	}
}

func joinTile(x0, y0, w, h int) string {
	return "&tile=" + itoa(x0) + "," + itoa(y0) + "," + itoa(w) + "," + itoa(h)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestKDVTileValidation(t *testing.T) {
	srv := newServer(t, serve.Config{})
	generate(t, srv, "name=ev&kind=csr&n=100&seed=1")
	cases := []string{
		// Non-naive methods must refuse windows.
		"/v1/kdv?dataset=ev&method=auto&bandwidth=8&width=16&height=16&tile=0,0,4,4",
		"/v1/kdv?dataset=ev&method=grid-cutoff&bandwidth=8&width=16&height=16&tile=0,0,4,4",
		// Malformed and out-of-bounds windows.
		"/v1/kdv?dataset=ev&method=naive&bandwidth=8&width=16&height=16&tile=junk",
		"/v1/kdv?dataset=ev&method=naive&bandwidth=8&width=16&height=16&tile=0,0,0,4",
		"/v1/kdv?dataset=ev&method=naive&bandwidth=8&width=16&height=16&tile=14,0,4,4",
	}
	for _, q := range cases {
		if rr := do(t, srv, http.MethodGet, q, nil); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rr.Code)
		}
	}
}

func TestKFunctionExplicitThresholdsMergeExactly(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=ev&kind=clusters&n=250&seed=3")

	const base = "/v1/kfunction?dataset=ev&smax=40&steps=6&sims=9&seed=11"
	var full kfuncResp
	getJSON(t, srv, base, &full)
	if len(full.S) != 6 {
		t.Fatalf("full plot has %d bands", len(full.S))
	}

	// The same six thresholds split into two explicit band requests must
	// reproduce the full plot value-for-value (counts are integers; the
	// envelope simulations draw from the seed independently of the bands).
	fmtS := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = formatFloat(v)
		}
		return strings.Join(parts, ",")
	}
	var lo, hi kfuncResp
	getJSON(t, srv, "/v1/kfunction?dataset=ev&sims=9&seed=11&thresholds="+fmtS(full.S[:3]), &lo)
	getJSON(t, srv, "/v1/kfunction?dataset=ev&sims=9&seed=11&thresholds="+fmtS(full.S[3:]), &hi)
	merged := kfuncResp{
		S:       append(append([]float64{}, lo.S...), hi.S...),
		K:       append(append([]float64{}, lo.K...), hi.K...),
		Lo:      append(append([]float64{}, lo.Lo...), hi.Lo...),
		Hi:      append(append([]float64{}, lo.Hi...), hi.Hi...),
		Regimes: append(append([]string{}, lo.Regimes...), hi.Regimes...),
	}
	for i := range full.S {
		if math.Float64bits(full.S[i]) != math.Float64bits(merged.S[i]) ||
			math.Float64bits(full.K[i]) != math.Float64bits(merged.K[i]) ||
			math.Float64bits(full.Lo[i]) != math.Float64bits(merged.Lo[i]) ||
			math.Float64bits(full.Hi[i]) != math.Float64bits(merged.Hi[i]) {
			t.Fatalf("band %d: merged (%v,%v,%v,%v) != full (%v,%v,%v,%v)", i,
				merged.S[i], merged.K[i], merged.Lo[i], merged.Hi[i],
				full.S[i], full.K[i], full.Lo[i], full.Hi[i])
		}
		if full.Regimes[i] != merged.Regimes[i] {
			t.Fatalf("band %d: regime %q != %q", i, merged.Regimes[i], full.Regimes[i])
		}
	}

	metrics := do(t, srv, http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "shard_bands_total") {
		t.Fatal("/metrics lacks shard_bands_total after thresholds requests")
	}
}

func TestKFunctionThresholdsValidation(t *testing.T) {
	srv := newServer(t, serve.Config{})
	generate(t, srv, "name=ev&kind=csr&n=100&seed=1")
	cases := []string{
		"/v1/kfunction?dataset=ev&thresholds=junk",
		"/v1/kfunction?dataset=ev&thresholds=5,4,3",  // not increasing
		"/v1/kfunction?dataset=ev&thresholds=-2,1,3", // negative
	}
	for _, q := range cases {
		if rr := do(t, srv, http.MethodGet, q, nil); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rr.Code)
		}
	}
}

// formatFloat round-trips a float64 exactly through its decimal form, the
// same convention the CSV writer and the shard coordinator use.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
