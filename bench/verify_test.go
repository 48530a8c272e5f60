package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geostat"
)

func smallSpec(method, kernel string) kdvSpec {
	s := kdvSpec{Kernel: kernel, Bandwidth: 3, Method: method, Box: studyBox, NX: 24, NY: 24}
	switch method {
	case "bound-approx":
		s.Eps = 0.05
	case "sampled":
		s.Eps, s.Delta, s.Seed = 0.05, 0.01, 1
	}
	return s
}

func evalSpec(t *testing.T, d *geostat.Dataset, s kdvSpec) *geostat.Heatmap {
	t.Helper()
	opt, err := s.options()
	if err != nil {
		t.Fatal(err)
	}
	g, err := geostat.KDVDatasetCtx(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReferenceAgrees: the direct-sum evaluator and every method the
// workloads use agree within each method's guarantee on a small case.
func TestReferenceAgrees(t *testing.T) {
	d := clustered(5, 3000)
	for _, s := range []kdvSpec{
		smallSpec("auto", "quartic"), smallSpec("auto", "epanechnikov"), smallSpec("auto", "triangular"),
		smallSpec("auto", "cosine"), smallSpec("naive", "quartic"), smallSpec("naive", "gaussian"),
		smallSpec("bound-approx", "gaussian"), smallSpec("sampled", "gaussian"),
	} {
		g := evalSpec(t, d, s)
		frac, err := checkAgainstRef(d, s, samplePixels(1, g.Values))
		if err != nil {
			t.Errorf("%s: %v", s.key(), err)
		}
		if frac > 1 {
			t.Errorf("%s: error is %.3g of what is allowed", s.key(), frac)
		}
	}
}

// TestCorruptedGridFails: one flipped pixel of a first result fails the
// reference check for every op that returned it, and a repeat that differs
// from the first by one bit fails at once.
func TestCorruptedGridFails(t *testing.T) {
	d := clustered(5, 3000)
	s := smallSpec("auto", "quartic")
	o := &op{ID: 0, Class: "sweep", Key: s.key(), KDV: &s}
	good := evalSpec(t, d, s).Values

	lt := newLibTarget(d)
	bad := append([]float64(nil), good...)
	for i := range bad {
		bad[i] *= 1.001 // every sampled pixel is now off by 1e-3
	}
	if err := lt.observe(o, bad); err != nil {
		t.Fatalf("first sight of a key cannot fail inline: %v", err)
	}
	if err := lt.observe(o, bad); err != nil {
		t.Fatalf("a faithful repeat failed: %v", err)
	}
	if errs := lt.finish(context.Background()); len(errs) != 2 {
		t.Errorf("corrupted first result: %d failed ops reported, want 2 (%v)", len(errs), errs)
	}

	lt = newLibTarget(d)
	if err := lt.observe(o, good); err != nil {
		t.Fatal(err)
	}
	flipped := append([]float64(nil), good...)
	flipped[17] += flipped[17] * 1e-15
	if err := lt.observe(o, flipped); err == nil {
		t.Error("a repeat differing in one bit was accepted")
	}
	if errs := lt.finish(context.Background()); len(errs) != 0 {
		t.Errorf("good first result failed the reference check: %v", errs)
	}
}

// TestTruncatedBodyFails: a response shorter than its Content-Length, a
// non-200 status and a cut-off PNG are all failed ops.
func TestTruncatedBodyFails(t *testing.T) {
	png, err := encodeHeatmap(evalSpec(t, clustered(5, 3000), smallSpec("auto", "quartic")), "png", "d", "auto")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/short":
			w.Header().Set("Content-Length", "100")
			_, _ = w.Write([]byte("only this"))
		case "/busy":
			http.Error(w, "shed", http.StatusServiceUnavailable)
		case "/cutpng":
			_, _ = w.Write(png[:len(png)/2])
		default:
			_, _ = w.Write(png)
		}
	}))
	st := &serveTarget{srv: srv, client: srv.Client(), ver: newVerifier(), bufs: make([]bytes.Buffer, 1), uses: make(map[string]int)}
	defer st.close()
	run := func(path string) error {
		_, rerr := st.run(context.Background(), 0, &op{Steps: []httpStep{{Method: "GET", URL: path}}}, opTrace{})
		return rerr
	}
	if err = run("/ok?format=png"); err != nil {
		t.Errorf("complete PNG failed: %v", err)
	}
	for _, path := range []string{"/short", "/busy", "/cutpng?format=png"} {
		if err = run(path); err == nil {
			t.Errorf("GET %s was accepted", path)
		}
	}
	if err = checkPNG(png[:len(png)-3]); err == nil {
		t.Error("PNG without its trailer was accepted")
	}
}

// TestWrongTileMergeFails: a merged raster with two tiles swapped is not
// the single-node result.
func TestWrongTileMergeFails(t *testing.T) {
	d := clustered(5, 3000)
	s := smallSpec("auto", "quartic")
	vals := evalSpec(t, d, s).Values
	if err := checkMerged(context.Background(), d, s, vals); err != nil {
		t.Fatalf("the single-node result does not match itself: %v", err)
	}
	swapped := append([]float64(nil), vals...)
	half := s.NX / 2
	for y := 0; y < s.NY/2; y++ { // swap the two upper tiles of a 2×2 cut
		for x := 0; x < half; x++ {
			a, b := y*s.NX+x, y*s.NX+x+half
			swapped[a], swapped[b] = swapped[b], swapped[a]
		}
	}
	err := checkMerged(context.Background(), d, s, swapped)
	if err == nil || !strings.Contains(err.Error(), "away from single-node") {
		t.Errorf("swapped tiles were accepted: %v", err)
	}
}

func TestDigest64(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog")
	b := append([]byte(nil), a...)
	if digest64(a) != digest64(b) {
		t.Error("equal bytes, different digests")
	}
	b[len(b)-1] ^= 1
	if digest64(a) == digest64(b) {
		t.Error("a flipped tail bit kept the digest")
	}
	if digest64(a) == digest64(a[:len(a)-1]) {
		t.Error("a shorter body kept the digest")
	}
}
