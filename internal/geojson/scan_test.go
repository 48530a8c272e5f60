package geojson

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestScannerQuirks pins what each committed FuzzParse corpus file
// decodes to — the encoding/json behaviours the scanner reproduces — and
// runs FuzzParse's differential check on it. points is DecodePoints's
// point count, or -1 where it must fail; parse says whether Parse accepts.
func TestScannerQuirks(t *testing.T) {
	for _, c := range []struct {
		file   string
		parse  bool
		points int
		check  func(t *testing.T, xs, ys, ts, vs []float64)
	}{
		{"key-fold-case", true, 1, nil},
		{"key-fold-long-s", true, 1, nil},
		{"key-escaped", true, 1, wantValues(4)},
		{"dup-coordinates", true, 1, wantXY(1, 2)},
		{"dup-property", true, 1, wantValues(2)},
		{"dup-properties-merge", true, 1, func(t *testing.T, _, _, ts, vs []float64) {
			if len(ts) != 1 || ts[0] != 5 || len(vs) != 1 || vs[0] != 1 {
				t.Errorf("times %v values %v, want [5] [1]", ts, vs)
			}
		}},
		{"dup-properties-null", true, 1, wantValues()},
		{"dup-geometry-merge", true, 1, wantXY(3, 4)},
		{"dup-features-merge", true, 2, func(t *testing.T, xs, ys, _, vs []float64) {
			if xs[0] != 7 || ys[0] != 8 || xs[1] != 5 || vs[0] != 1 || vs[1] != 2 {
				t.Errorf("xs %v ys %v values %v, want a merged first feature (7, 8; 1) and an untouched second (5, 6; 2)", xs, ys, vs)
			}
		}},
		{"dup-features-reset", true, 0, nil},
		{"null-features", true, 0, nil},
		{"null-members", true, 1, wantXY(1, 2)},
		{"null-coordinates", false, -1, nil},
		{"unknown-members", true, 1, nil},
		{"unknown-member-invalid", false, -1, nil},
		{"number-plus", false, -1, nil},
		{"number-leading-dot", false, -1, nil},
		{"number-inf", false, -1, nil},
		{"number-hex", false, -1, nil},
		{"number-overflow", false, -1, nil},
		{"number-overflow-property", false, -1, nil},
		{"negative-zero", true, 1, func(t *testing.T, xs, _, _, vs []float64) {
			if !math.Signbit(xs[0]) || !math.Signbit(vs[0]) {
				t.Errorf("x %v value %v lost the sign of -0", xs[0], vs[0])
			}
		}},
		{"value-null", true, -1, nil},
		{"value-string", true, -1, nil},
		{"linestring-beside-points", true, 2, nil},
		{"multipoint", false, -1, nil},
		{"mixed-presence", true, -1, nil},
	} {
		t.Run(c.file, func(t *testing.T) {
			data := corpusInput(t, filepath.Join("testdata", "fuzz", "FuzzParse", c.file))
			checkDecoders(t, data)
			if _, err := Parse(data); (err == nil) != c.parse {
				t.Errorf("Parse error %v, want accepted = %v", err, c.parse)
			}
			d, err := DecodePoints(data)
			if c.points < 0 {
				if err == nil {
					t.Fatalf("DecodePoints accepted %d points, want an error", d.N())
				}
				return
			}
			if err != nil || d.N() != c.points {
				t.Fatalf("DecodePoints: %v points, error %v; want %d", d, err, c.points)
			}
			if c.check != nil {
				cols := d.Columns()
				c.check(t, cols.X, cols.Y, d.Times(), d.Values())
			}
		})
	}
}

func wantXY(x, y float64) func(t *testing.T, xs, ys, _, _ []float64) {
	return func(t *testing.T, xs, ys, _, _ []float64) {
		if xs[0] != x || ys[0] != y {
			t.Errorf("point (%v, %v), want (%v, %v)", xs[0], ys[0], x, y)
		}
	}
}

func wantValues(want ...float64) func(t *testing.T, _, _, _, vs []float64) {
	return func(t *testing.T, _, _, _, vs []float64) {
		if (vs == nil) != (want == nil) || len(vs) != len(want) || (len(vs) > 0 && vs[0] != want[0]) {
			t.Errorf("values %v, want %v", vs, want)
		}
	}
}

// corpusInput reads the []byte input of a one-value fuzz corpus file.
func corpusInput(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
