package kriging

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"geostat/internal/geom"
)

// bitsDigest hashes the Float64bits of vs in order.
func bitsDigest(vs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDigestsPinned holds the kriging surface, the LOOCV residuals and
// the empirical variogram to digests recorded from the build that read
// d.Points() (never regenerate them with the current code), at workers
// {1, 2, −1}.
func TestDigestsPinned(t *testing.T) {
	d := smoothField(31, 300, 0.1)
	v := Variogram{Model: Spherical, Nugget: 0.1, Sill: 2, Range: 25}
	for _, workers := range []int{1, 2, -1} {
		local, err := Interpolate(d, Options{Grid: geom.NewPixelGrid(box, 24, 20), Variogram: v, Neighbors: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bitsDigest(local.Values), "36bbeb433d1e7969"; got != want {
			t.Errorf("Interpolate workers=%d: digest %s, pinned %s", workers, got, want)
		}
		cv, err := LOOCVWorkers(d, v, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bitsDigest(cv.Residuals), "750951d48732313b"; got != want {
			t.Errorf("LOOCVWorkers workers=%d: digest %s, pinned %s", workers, got, want)
		}
	}
	bins, err := Empirical(d, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, b := range bins {
		flat = append(flat, b.Lag, b.Gamma, float64(b.Pairs))
	}
	if got, want := bitsDigest(flat), "6f3a4837f0a02bf2"; got != want {
		t.Errorf("Empirical: digest %s, pinned %s", got, want)
	}
}
