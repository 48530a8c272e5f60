package shard

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestF64RoundTrip: format=f64 carries every value's bits, the ones JSON
// and decimal text get wrong or cannot carry included.
func TestF64RoundTrip(t *testing.T) {
	vals := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), 1.0 / 3,
	}
	in := KDVResult{Dataset: "ev\n\"q\"", Method: "naive", Width: 4, Height: 3,
		Min: math.Copysign(0, -1), Max: math.MaxFloat64, Sum: math.SmallestNonzeroFloat64, Values: vals}
	body, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(string(body), "\n")
	if want := len(head) + 1 + 8*len(vals); len(body) != want {
		t.Fatalf("body is %d bytes, want header line + 1 + 8·W·H = %d", len(body), want)
	}
	var out KDVResult
	if err := out.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	bits := func(r KDVResult) []uint64 {
		b := []uint64{math.Float64bits(r.Min), math.Float64bits(r.Max), math.Float64bits(r.Sum)}
		for _, v := range r.Values {
			b = append(b, math.Float64bits(v))
		}
		return b
	}
	if !slices.Equal(bits(out), bits(in)) {
		t.Errorf("bits changed in the round trip:\n got %x\nwant %x", bits(out), bits(in))
	}
	if out.Dataset != in.Dataset || out.Method != in.Method || out.Width != in.Width || out.Height != in.Height {
		t.Errorf("header changed: got %+v", out)
	}
}

// TestF64Rejects: a body UnmarshalBinary cannot account for byte for byte
// is an error, and leaves the result as it was.
func TestF64Rejects(t *testing.T) {
	good, err := KDVResult{Width: 2, Height: 3, Values: make([]float64, 6)}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"empty", "no header line", nil},
		{"no header line", "no header line", good[len(good)-48:]},
		{"header not JSON", "header", append([]byte("2x3\n"), good[len(good)-48:]...)},
		{"partial value", "not a multiple of 8", good[:len(good)-3]},
		{"truncated", "2x3 with 5 values", good[:len(good)-8]},
		{"extra value", "2x3 with 7 values", append(append([]byte(nil), good...), good[len(good)-8:]...)},
		{"zero width", "0x3 with 6 values", []byte(`{"width":0,"height":3}` + "\n" + string(good[len(good)-48:]))},
		{"negative sides", "-2x-3 with 6 values", []byte(`{"width":-2,"height":-3}` + "\n" + string(good[len(good)-48:]))},
	} {
		r := KDVResult{Dataset: "kept"}
		err := r.UnmarshalBinary(tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error saying %q", tc.name, err, tc.want)
		}
		if r.Dataset != "kept" || r.Values != nil {
			t.Errorf("%s: a failed decode changed the result to %+v", tc.name, r)
		}
	}
}
