package serve_test

import (
	"net/http"
	"testing"

	"geostat/internal/serve"
)

// TestToolParamEdgeCases asserts the exact 400 body for every malformed-
// parameter class: unknown enum values, out-of-range and non-numeric
// numbers, NaN coordinates, and oversized grids. Bodies are part of the
// API contract (clients pattern-match them), so the assertions are exact
// string equality, not substring checks.
func TestToolParamEdgeCases(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 1 << 20})
	// field=true attaches values so the interpolation/autocorrelation
	// tools get past dataset validation and into parameter parsing.
	generate(t, srv, "name=d&kind=csr&n=100&seed=1&field=true")
	// Large enough that n·k can pass the weight matrix's 2³¹−1 nonzeros;
	// the request is refused from the product, before any index is built.
	generate(t, srv, "name=wide&kind=csr&n=50000&seed=1&field=true")

	cases := []struct {
		name   string
		target string
		want   string // exact error message
	}{
		{
			name:   "unknown kernel",
			target: "/v1/kdv?dataset=d&kernel=bogus",
			want:   `kernel: unknown kernel "bogus"`,
		},
		{
			name:   "negative bandwidth",
			target: "/v1/kdv?dataset=d&bandwidth=-2",
			want:   `kernel: bandwidth must be positive and finite, got -2`,
		},
		{
			name:   "NaN bandwidth",
			target: "/v1/kdv?dataset=d&bandwidth=NaN",
			want:   `kernel: bandwidth must be positive and finite, got NaN`,
		},
		{
			name:   "bandwidth whose square underflows",
			target: "/v1/kdv?dataset=d&bandwidth=1e-200",
			want:   `kernel: bandwidth 1e-200 is too small: 1/b² overflows`,
		},
		{
			name:   "non-numeric bandwidth",
			target: "/v1/kdv?dataset=d&bandwidth=abc",
			want:   `invalid parameters: bandwidth: not a number ("abc")`,
		},
		{
			name:   "unknown KDV method",
			target: "/v1/kdv?dataset=d&method=warp",
			want:   `unknown method "warp"`,
		},
		{
			name:   "tile on a method without the window capability",
			target: "/v1/kdv?dataset=d&method=grid-cutoff&bandwidth=5&width=16&height=16&tile=0,0,4,4",
			want:   `kde: grid-cutoff does not support windowed evaluation (Options.Window)`,
		},
		{
			name:   "tile on auto names the method the kernel resolved to",
			target: "/v1/kdv?dataset=d&bandwidth=5&width=16&height=16&tile=0,0,4,4",
			want:   `kde: sweep-line does not support windowed evaluation (Options.Window)`,
		},
		{
			name:   "zero grid width",
			target: "/v1/kdv?dataset=d&bandwidth=5&width=0",
			want:   `invalid parameters: width/height: must be in [1, 4096]`,
		},
		{
			name:   "oversized grid height",
			target: "/v1/kdv?dataset=d&bandwidth=5&height=5000",
			want:   `invalid parameters: width/height: must be in [1, 4096]`,
		},
		{
			name:   "non-integer width",
			target: "/v1/kdv?dataset=d&bandwidth=5&width=abc",
			want:   `invalid parameters: width: not an integer ("abc")`,
		},
		{
			name:   "NaN bbox coordinate",
			target: "/v1/kdv?dataset=d&bandwidth=5&bbox=NaN,0,10,10",
			want:   `invalid parameters: bbox: coordinates must be finite ("NaN,0,10,10")`,
		},
		{
			name:   "infinite bbox coordinate",
			target: "/v1/kdv?dataset=d&bandwidth=5&bbox=0,0,%2BInf,10",
			want:   `invalid parameters: bbox: coordinates must be finite ("0,0,+Inf,10")`,
		},
		{
			name:   "empty bbox",
			target: "/v1/kdv?dataset=d&bandwidth=5&bbox=5,5,1,1",
			want:   `invalid parameters: bbox: empty box "5,5,1,1"`,
		},
		{
			name:   "malformed bbox",
			target: "/v1/kdv?dataset=d&bandwidth=5&bbox=1,2,3",
			want:   `invalid parameters: bbox: want minx,miny,maxx,maxy ("1,2,3")`,
		},
		{
			name:   "multiple errors joined in read order",
			target: "/v1/kdv?dataset=d&bandwidth=abc&width=xyz",
			want:   `invalid parameters: bandwidth: not a number ("abc"); width: not an integer ("xyz")`,
		},
		{
			name:   "kfunction zero steps",
			target: "/v1/kfunction?dataset=d&steps=0",
			want:   `steps must be in [1, 1000]`,
		},
		{
			name:   "kfunction oversized sims",
			target: "/v1/kfunction?dataset=d&sims=20000",
			want:   `sims must be in [1, 10000]`,
		},
		{
			name:   "kfunction negative smax",
			target: "/v1/kfunction?dataset=d&smax=-1",
			want:   `smax must be positive`,
		},
		{
			name:   "kfunction NaN smax",
			target: "/v1/kfunction?dataset=d&smax=NaN",
			want:   `smax must be positive`,
		},
		{
			name:   "moran unknown weights scheme",
			target: "/v1/moran?dataset=d&weights=foo",
			want:   `unknown weights scheme "foo" (knn|band)`,
		},
		{
			name:   "moran oversized perms",
			target: "/v1/moran?dataset=d&perms=2000000000",
			want:   `perms must be in [0, 10000]`,
		},
		{
			name:   "moran negative perms",
			target: "/v1/moran?dataset=d&perms=-1",
			want:   `perms must be in [0, 10000]`,
		},
		{
			name:   "generalg oversized perms",
			target: "/v1/generalg?dataset=d&perms=10001",
			want:   `perms must be in [0, 10000]`,
		},
		{
			name:   "moran non-integer k",
			target: "/v1/moran?dataset=d&k=abc",
			want:   `invalid parameters: k: not an integer ("abc")`,
		},
		{
			name:   "generalg non-integer perms",
			target: "/v1/generalg?dataset=d&perms=x",
			want:   `invalid parameters: perms: not an integer ("x")`,
		},
		{
			name:   "generalg band with a non-numeric radius and seed",
			target: "/v1/generalg?dataset=d&weights=band&radius=far&seed=s",
			want:   `invalid parameters: radius: not a number ("far"); seed: not an integer ("s")`,
		},
		{
			name:   "moran kNN with more neighbours than int32 offsets address",
			target: "/v1/moran?dataset=wide&k=49999",
			want:   `weights: 2499950000 neighbours over n=50000 sites exceed the limit of 2147483647; use a smaller k or radius`,
		},
		{
			name:   "idw unknown method",
			target: "/v1/idw?dataset=d&method=x",
			want:   `unknown method "x" (naive|knn|radius)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := do(t, srv, http.MethodGet, tc.target, nil)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", rr.Code, rr.Body.String())
			}
			wantBody := `{"error":"` + jsonEscape(tc.want) + `"}` + "\n"
			if got := rr.Body.String(); got != wantBody {
				t.Fatalf("body:\n got %s\nwant %s", got, wantBody)
			}
		})
	}
}

// jsonEscape escapes the characters json.Encoder escapes inside the
// expected error strings (quotes only; the messages contain no others).
func jsonEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '\\')
		}
		out = append(out, s[i])
	}
	return string(out)
}
