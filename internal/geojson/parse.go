package geojson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"geostat/internal/dataset"
)

// Parse decodes and validates a GeoJSON FeatureCollection. It is the
// inverse of Write: geometry coordinates are normalised back into the
// concrete shapes the builders produce, so a parsed collection re-encodes
// to an equivalent document. Unknown geometry types, malformed coordinate
// arrays, and non-finite coordinates are rejected rather than passed
// through. The document is read by the scanner in scan.go; each feature's
// "properties" go to encoding/json.
func Parse(data []byte) (*FeatureCollection, error) {
	c := collectionSink{features: make([]Feature, 0, countPositions(data))}
	if err := scanCollection(data, &c); err != nil {
		return nil, err
	}
	return &FeatureCollection{Type: "FeatureCollection", Features: c.features}, nil
}

// Read decodes a FeatureCollection from r.
func Read(r io.Reader) (*FeatureCollection, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// ReadFile decodes a FeatureCollection from the named file.
func ReadFile(path string) (*FeatureCollection, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// DecodePoints decodes a FeatureCollection straight into a dataset: the
// coordinates of its Point features plus, when present, their numeric "t"
// and "value" properties (the GeoJSON counterparts of the CSV t/value
// columns). It accepts exactly the documents Parse accepts and yields the
// dataset of their Point features, appended into the columns as the
// scanner meets them, with no FeatureCollection in between.
//
// The first Point feature decides which optional columns the dataset
// carries, and every other Point must carry the same ones: a
// half-populated time or value column has no meaning to the analytics
// tools. A property is read as encoding/json would leave it in the
// feature's map (exact key, the last one wins), and anything but a number
// there — null included — is an error. Non-Point features (contour lines,
// bounding boxes) are validated and skipped, so an exported collection
// round-trips to its events; MultiPoint is not a supported geometry.
func DecodePoints(data []byte) (*dataset.Dataset, error) {
	p := pointSink{hint: countPositions(data)}
	if err := scanCollection(data, &p); err != nil {
		return nil, err
	}
	d := p.b.Dataset()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// countPositions counts the "coordinates" keys in data: one cheap pass
// that bounds the number of features from above (a key spelled with an
// escape or in other case only makes it an underestimate). The pattern
// leaves out the opening quote: searching from a 'c' skips ahead far
// faster than from the quote every JSON string starts with.
func countPositions(data []byte) int {
	return bytes.Count(data, []byte(`coordinates"`))
}

// collectionSink builds Parse's FeatureCollection.
type collectionSink struct {
	features []Feature
	props    map[string]any // the current feature's properties
}

// properties merges one "properties" member into the current feature's map
// with json.Unmarshal, over what an earlier "properties" member of the same
// feature left there: null empties it, an object adds its members, the
// last duplicate wins.
func (c *collectionSink) properties(raw []byte) error {
	return json.Unmarshal(raw, &c.props)
}

func (c *collectionSink) feature(f *feature) error {
	props := c.props
	c.props = nil
	if !f.isFeature {
		return fmt.Errorf("type is not Feature")
	}
	g, err := f.geometry()
	if err != nil {
		return err
	}
	c.features = append(c.features, Feature{Type: "Feature", Geometry: g, Properties: props})
	return nil
}

func (c *collectionSink) reset() { c.features, c.props = c.features[:0], nil }

// pointSink appends DecodePoints's Point features into a dataset.Builder.
type pointSink struct {
	b       dataset.Builder
	hint    int  // presize for the columns
	started bool // the first Point has fixed the optional columns
	t, v    prop // the current feature's "t" and "value" properties
}

// prop is one property of the current feature as its map would hold it.
type prop struct {
	raw []byte  // the value's raw JSON; nil if the key is absent
	x   float64 // the value, when it is a number
}

// number returns the property as a float64: false if absent, an error if
// it is anything but a number.
func (p prop) number(key string) (float64, bool, error) {
	if p.raw == nil {
		return 0, false, nil
	}
	if c := p.raw[0]; c != '-' && !isDigit(c) {
		return 0, false, fmt.Errorf("property %q is %s, want number", key, kindOf(p.raw))
	}
	return p.x, true, nil
}

// properties merges a "properties" object into t and v (null empties the
// map), converting every number in it as encoding/json would.
func (p *pointSink) properties(raw []byte) error {
	if raw[0] == 'n' {
		p.t, p.v = prop{}, prop{}
		return nil
	}
	s := scanner{data: raw}
	_, err := s.object(0, 0, func(key []byte, esc bool, j int) (int, error) {
		var dst *prop
		switch {
		case strEq(key, esc, "t"):
			dst = &p.t
		case strEq(key, esc, "value"):
			dst = &p.v
		}
		if x, end, ok := s.float(j); ok && dst != nil {
			*dst = prop{raw: raw[j:end], x: x}
			return end, nil
		}
		end, err := s.value(j, 0, true)
		if err == nil && dst != nil {
			*dst = prop{raw: raw[j:end]}
		}
		return end, err
	})
	return err
}

func (p *pointSink) feature(f *feature) error {
	t, v := p.t, p.v
	p.t, p.v = prop{}, prop{}
	if !f.isFeature {
		return fmt.Errorf("type is not Feature")
	}
	if f.kind != gPoint {
		_, err := f.geometry()
		return err
	}
	c, err := f.position()
	if err != nil {
		return err
	}
	tv, hasT, err := t.number("t")
	if err != nil {
		return err
	}
	vv, hasV, err := v.number("value")
	if err != nil {
		return err
	}
	if !p.started {
		p.started = true
		p.b.Reset(p.hint, hasT, hasV)
	} else if hasT != p.b.HasTimes() || hasV != p.b.HasValues() {
		return fmt.Errorf("every Point must carry the same optional properties (t/value)")
	}
	p.b.Add(c[0], c[1], tv, vv)
	return nil
}

func (p *pointSink) reset() { *p = pointSink{hint: p.hint} }
