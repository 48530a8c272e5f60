package dataset

import (
	"testing"

	"geostat/internal/geom"
)

// TestDigestPinned holds Digest to hex strings recorded from the build that
// still had a weight column, whose absent tag every digest ends with. A
// digest names a dataset's placement on the shard workers, so a format
// change must be a deliberate one.
func TestDigestPinned(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1.5, Y: -2.25}, {X: -0.1, Y: 1e10}}
	times := []float64{0, 1, 2.5}
	values := []float64{3, -1, 0.1}
	for _, c := range []struct {
		name        string
		times, vals []float64
		want        string
	}{
		{"xy", nil, nil, "c17c3b1a413a497979431132e2614e9f940986c6e3ad3fc1db527023787e3137"},
		{"t", times, nil, "3ec25b91f75084ff4295c4c3c89ffd9890e7f0d892c9683e3c0e98ea543a26fd"},
		{"value", nil, values, "eb82884234b29250f48e4dc68dd95bb313b93a2b35e82237357a2465b31dee15"},
		{"t+value", times, values, "10c85dfd8bb417f89e96f40ec4268e925ea31a4ef5f013b4b2c70625f9c2b759"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := New(pts, c.times, c.vals)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Digest(); got != c.want {
				t.Errorf("Digest = %s, want %s", got, c.want)
			}
		})
	}
}
