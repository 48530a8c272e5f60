package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"geostat"
)

const checkPixels = 64 // seeded pixels compared with the reference per distinct KDV key

// digest64 hashes b eight bytes at a time (FNV-1a over words). It only has
// to tell a corrupted repeat from a faithful one, and it runs on the
// callers' cores beside the program under test, so it is cheap on purpose.
func digest64(b []byte) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// gridDigest hashes the exact bits of a raster.
func gridDigest(vals []float64) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(vals))
	for _, v := range vals {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// refKDV is the benchmark's own evaluator: the direct sum of Definition 1
// over the raw columns, no pruning, no sharing.
func refKDV(d *geostat.Dataset, k geostat.Kernel, q geostat.Point) float64 {
	cols := d.Columns()
	sum := 0.0
	for i, x := range cols.X {
		dx, dy := x-q.X, cols.Y[i]-q.Y
		sum += k.Eval2(dx*dx + dy*dy)
	}
	return sum
}

// pixelSample is what is kept of a key's first raster for the deferred
// reference check: checkPixels seeded pixel indices and their values.
type pixelSample struct {
	idx  []int
	vals []float64
	peak float64
}

func samplePixels(seed int64, vals []float64) pixelSample {
	rng := geostat.NewRand(seed)
	s := pixelSample{idx: make([]int, checkPixels), vals: make([]float64, checkPixels)}
	for i := range s.idx {
		s.idx[i] = rng.Intn(len(vals))
		s.vals[i] = vals[s.idx[i]]
	}
	for _, v := range vals {
		s.peak = math.Max(s.peak, v)
	}
	return s
}

// exactTol is the agreement demanded of the exact methods, as a share of the
// raster's peak. The sweep line sums signed polynomial moments of the
// coordinates, so its rounding error scales with the peak and not with the
// pixel's own value; with n = 100 000 over [0,100]² it reaches a few 1e-9 of
// the peak for the quartic kernel, which 1e-7 leaves room for.
const exactTol = 1e-7

// checkAgainstRef compares sampled pixels of a KDV result with the direct
// sum. It returns the largest error as a share of what the method's
// guarantee allows (≤ 1 passes) and an error when a pixel is outside it.
func checkAgainstRef(d *geostat.Dataset, s kdvSpec, ps pixelSample) (float64, error) {
	opt, err := s.options()
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, px := range ps.idx {
		ref := refKDV(d, opt.Kernel, opt.Grid.Center(px%s.NX, px/s.NX))
		diff := math.Abs(ps.vals[i] - ref)
		var allowed float64
		switch s.Method {
		case "bound-approx": // (1±ε) relative guarantee
			allowed = s.Eps*ref + exactTol*ps.peak
		case "sampled": // additive ε·W·K(0) guarantee, W = n for unit weights
			allowed = s.Eps * float64(d.N()) * opt.Kernel.Eval2(0)
		default:
			allowed = exactTol * math.Max(ps.peak, ref)
		}
		if math.IsNaN(diff) || diff > allowed {
			return diff / allowed, fmt.Errorf("pixel %d: got %g, reference %g, allowed error %g", px, ps.vals[i], ref, allowed)
		}
		if allowed > 0 {
			worst = math.Max(worst, diff/allowed)
		}
	}
	return worst, nil
}

// verifier holds the first result seen for every key and fails any later
// result that differs by a single bit.
type verifier struct {
	mu    sync.Mutex
	first map[string]uint64
}

func newVerifier() *verifier { return &verifier{first: make(map[string]uint64)} }

// observe records digest for key. fresh reports whether this was the first
// sight of the key; err is non-nil when a repeat does not match the first.
func (v *verifier) observe(key string, digest uint64) (fresh bool, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	want, ok := v.first[key]
	if !ok {
		v.first[key] = digest
		return true, nil
	}
	if want != digest {
		return false, fmt.Errorf("%s: repeat differs from the first result (digest %016x, first %016x)", key, digest, want)
	}
	return false, nil
}

// heatmapBody is the JSON payload of /v1/kdv and /v1/idw.
type heatmapBody struct {
	Width  int       `json:"width"`
	Height int       `json:"height"`
	Values []float64 `json:"values"`
}

func decodeHeatmap(body []byte, nx, ny int) (*heatmapBody, error) {
	var h heatmapBody
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("decode heatmap: %w", err)
	}
	if h.Width != nx || h.Height != ny || len(h.Values) != nx*ny {
		return nil, fmt.Errorf("heatmap is %dx%d with %d values, want %dx%d", h.Width, h.Height, len(h.Values), nx, ny)
	}
	return &h, nil
}

const pngMagic = "\x89PNG\r\n\x1a\n"

// checkPNG is the cheap structural check every PNG body gets: signature and
// a complete trailer, which a truncated body lacks.
func checkPNG(body []byte) error {
	if len(body) < 20 || string(body[:8]) != pngMagic || string(body[len(body)-8:len(body)-4]) != "IEND" {
		return fmt.Errorf("not a complete PNG (%d bytes)", len(body))
	}
	return nil
}

// maxPeakDiff returns the largest |a-b| over the rasters as a share of b's
// peak; a shape mismatch is +Inf.
func maxPeakDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	peak, diff := 0.0, 0.0
	for i := range b {
		peak = math.Max(peak, math.Abs(b[i]))
		if d := math.Abs(a[i] - b[i]); d > diff || math.IsNaN(d) {
			diff = d
		}
	}
	if math.IsNaN(diff) {
		return math.Inf(1)
	}
	if peak == 0 {
		return diff
	}
	return diff / peak
}
