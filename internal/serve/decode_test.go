package serve

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"geostat"
)

// TestDecodeAllocs gates the allocation count of the upload decode
// (decodeDataset), the way TestHotPathAllocs gates the kernel loops. A
// GeoJSON body allocates as often at n = 600 as at n = 6 000: nothing per
// feature. A CSV body allocates at most n plus a constant: encoding/csv's
// one string per record and nothing else per row. For reference, the
// decoders this replaced (encoding/json into map[string]any trees, then a
// []geom.Point copy; a []float64 per CSV row) allocated 102 069 times on
// the GeoJSON and 12 053 times on the CSV of n = 6 000.
func TestDecodeAllocs(t *testing.T) {
	const csvSlack = 32 // the reader, its buffers and the columns
	var geojsonAt600 float64
	for _, n := range []int{600, 6000} {
		csv, gj := uploadBodies(t, n)
		if got := decodeAllocs(t, csv); got > float64(n+csvSlack) {
			t.Errorf("CSV n=%d: %v allocations, want at most n + %d", n, got, csvSlack)
		}
		got := decodeAllocs(t, gj)
		if n == 600 {
			geojsonAt600 = got
		} else if got != geojsonAt600 {
			t.Errorf("GeoJSON: %v allocations at n=%d but %v at n=600: something allocates per feature", got, n, geojsonAt600)
		}
	}
}

// TestReadDeclared: readDeclared returns exactly the n bytes it was told to
// expect, in a buffer of capacity n, whether they fit its first buffer or
// arrive in pieces past it, and refuses a body shorter than declared.
func TestReadDeclared(t *testing.T) {
	for _, n := range []int{0, 1, firstBodyBuffer, 2*firstBodyBuffer + 3} {
		want := bytes.Repeat([]byte("0123456789"), n/10+1)[:n]
		got, err := readDeclared(iotest.HalfReader(bytes.NewReader(want)), int64(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, want) || cap(got) != n {
			t.Errorf("n=%d: read %d bytes into a buffer of %d, want the %d declared", n, len(got), cap(got), n)
		}
		if n == 0 {
			continue
		}
		if _, err := readDeclared(bytes.NewReader(want[:n-1]), int64(n)); err != io.ErrUnexpectedEOF {
			t.Errorf("n=%d, one byte short: error %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

func decodeAllocs(t *testing.T, body []byte) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if _, _, err := decodeDataset(body); err != nil {
			t.Fatal(err)
		}
	})
}

// uploadBodies encodes one clustered n-point dataset with a value column
// in both upload formats.
func uploadBodies(t *testing.T, n int) (csv, gj []byte) {
	t.Helper()
	box := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	rng := geostat.NewRand(7)
	d := geostat.WithField(rng, geostat.UniformCSR(rng, n, box), func(q geostat.Point) float64 {
		return q.X / 10
	}, 0.5)
	var cb, gb bytes.Buffer
	if err := geostat.WriteCSV(&cb, d); err != nil {
		t.Fatal(err)
	}
	fc := geostat.NewGeoJSON()
	for i := 0; i < d.N(); i++ {
		fc.AddPoint(d.Point(i), map[string]any{"value": d.Values()[i]})
	}
	if err := fc.Write(&gb); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), gb.Bytes()
}
