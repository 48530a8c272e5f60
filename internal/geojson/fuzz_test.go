package geojson

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse holds both decoders to the encoding/json one they replaced
// (reference_test.go), on the same bytes: Parse errors iff the reference
// does and otherwise yields a reflect.DeepEqual collection; DecodePoints
// errors iff the reference upload path (parse, PointData, dataset.New)
// does and otherwise yields a dataset with the same Digest. Any accepted
// document must also re-encode stably: Write(Parse(x)) parses again, and
// encoding is a fixpoint after one pass.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"type":"FeatureCollection","features":[]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{"v":3}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"LineString","coordinates":[[0,0],[1,1]]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}}]}`))
	f.Add([]byte(`{"type":"Garbage"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data)
		fc, err := Parse(data)
		if err != nil {
			return
		}
		var buf1 bytes.Buffer
		if err := fc.Write(&buf1); err != nil {
			t.Fatalf("writing a parsed collection: %v", err)
		}
		fc2, err := Parse(buf1.Bytes())
		if err != nil {
			t.Fatalf("re-parsing written output: %v\noutput: %s", err, buf1.Bytes())
		}
		var buf2 bytes.Buffer
		if err := fc2.Write(&buf2); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("encode is not a fixpoint:\nfirst:  %s\nsecond: %s", buf1.Bytes(), buf2.Bytes())
		}
	})
}

// checkDecoders is FuzzParse's differential property on one input.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	got, err := Parse(data)
	want, werr := parseReference(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Parse error %v, encoding/json error %v\ninput: %q", err, werr, data)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse and encoding/json disagree\ninput: %q\nParse:  %#v\nwant:   %#v", data, got, want)
	}
	d, err := DecodePoints(data)
	wd, werr := decodePointsReference(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodePoints error %v, reference error %v\ninput: %q", err, werr, data)
	}
	if err == nil && d.Digest() != wd.Digest() {
		t.Fatalf("DecodePoints digest differs from the reference (n %d vs %d, times %v vs %v, values %v vs %v)\ninput: %q",
			d.N(), wd.N(), d.HasTimes(), wd.HasTimes(), d.HasValues(), wd.HasValues(), data)
	}
}
