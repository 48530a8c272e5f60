package dataset

import (
	"bytes"
	"testing"
)

// FuzzReadCSV holds both CSV readers to the one they replaced
// (reference_test.go), on the same bytes: DecodeCSV (the upload path) and
// ReadCSV error iff the reference does and otherwise yield a dataset with
// its Digest, so the same floats, the same order and the same optional
// columns. Any accepted dataset must also survive a write/read cycle
// byte-identically: WriteCSV uses shortest round-trip float formatting, so
// re-reading and re-writing must reproduce the first encoding exactly.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("x,y\n1,2\n3.5,-4e2\n"))
	f.Add([]byte("x,y,t,value\n1,2,0.5,9\n"))
	f.Add([]byte("x,y,value\n0.1,0.2,3\n"))
	f.Add([]byte("x,y\nnot,numbers\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := readCSVReference(bytes.NewReader(data))
		for _, r := range []struct {
			name string
			read func() (*Dataset, error)
		}{
			{"DecodeCSV", func() (*Dataset, error) { return DecodeCSV(data) }},
			{"ReadCSV", func() (*Dataset, error) { return ReadCSV(bytes.NewReader(data)) }},
		} {
			got, err := r.read()
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s error %v, reference error %v\ninput: %q", r.name, err, werr, data)
			}
			if err == nil && got.Digest() != want.Digest() {
				t.Fatalf("%s digest differs from the reference\ninput: %q", r.name, data)
			}
		}
		d, err := DecodeCSV(data)
		if err != nil {
			return
		}
		var buf1 bytes.Buffer
		if err := WriteCSV(&buf1, d); err != nil {
			t.Fatalf("writing an accepted dataset: %v", err)
		}
		d2, err := ReadCSV(bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written output: %v\noutput: %q", err, buf1.Bytes())
		}
		var buf2 bytes.Buffer
		if err := WriteCSV(&buf2, d2); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("CSV round-trip not stable:\nfirst:  %q\nsecond: %q", buf1.Bytes(), buf2.Bytes())
		}
	})
}
