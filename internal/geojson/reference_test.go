package geojson

import (
	"encoding/json"
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

// This file keeps the decoder the scanner replaced: encoding/json into
// FeatureCollection's map[string]any tree, then normalizeGeometry, then
// PointData's []geom.Point copy. It is the differential reference of
// FuzzParse and of the quirk tests — whatever it accepts the scanner must
// accept, with an equal collection and an equal dataset digest.

// parseReference is Parse as encoding/json did it.
func parseReference(data []byte) (*FeatureCollection, error) {
	var fc FeatureCollection
	if err := json.Unmarshal(data, &fc); err != nil {
		return nil, fmt.Errorf("geojson: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("geojson: top-level type %q, want FeatureCollection", fc.Type)
	}
	if fc.Features == nil {
		fc.Features = []Feature{}
	}
	for i := range fc.Features {
		f := &fc.Features[i]
		if f.Type != "Feature" {
			return nil, fmt.Errorf("geojson: feature %d: type %q, want Feature", i, f.Type)
		}
		norm, err := normalizeReference(f.Geometry)
		if err != nil {
			return nil, fmt.Errorf("geojson: feature %d: %w", i, err)
		}
		f.Geometry = norm
	}
	return &fc, nil
}

// decodePointsReference is the upload path the scanner replaced:
// parseReference, PointData, dataset.New.
func decodePointsReference(data []byte) (*dataset.Dataset, error) {
	fc, err := parseReference(data)
	if err != nil {
		return nil, err
	}
	pts, times, values, err := pointDataReference(fc)
	if err != nil {
		return nil, err
	}
	return dataset.New(pts, times, values)
}

func normalizeReference(g geometry) (geometry, error) {
	switch g.Type {
	case "Point":
		c, err := asCoord(g.Coordinates)
		if err != nil {
			return g, err
		}
		g.Coordinates = c
	case "LineString":
		cs, err := asLine(g.Coordinates)
		if err != nil {
			return g, err
		}
		if len(cs) < 2 {
			return g, fmt.Errorf("LineString with %d positions, want >= 2", len(cs))
		}
		g.Coordinates = cs
	case "MultiLineString":
		lines, err := asLines(g.Coordinates)
		if err != nil {
			return g, err
		}
		g.Coordinates = lines
	case "Polygon":
		rings, err := asLines(g.Coordinates)
		if err != nil {
			return g, err
		}
		for _, ring := range rings {
			if len(ring) < 4 {
				return g, fmt.Errorf("polygon ring with %d positions, want >= 4", len(ring))
			}
			if ring[0] != ring[len(ring)-1] {
				return g, fmt.Errorf("polygon ring is not closed")
			}
		}
		g.Coordinates = rings
	default:
		return g, fmt.Errorf("unsupported geometry type %q", g.Type)
	}
	return g, nil
}

func asCoord(v any) ([2]float64, error) {
	raw, ok := v.([]any)
	if !ok || len(raw) != 2 {
		return [2]float64{}, fmt.Errorf("position must be a [x, y] array, got %T", v)
	}
	var c [2]float64
	for i, e := range raw {
		f, ok := e.(float64)
		if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
			return c, fmt.Errorf("coordinate %d is not a finite number", i)
		}
		c[i] = f
	}
	return c, nil
}

func asLine(v any) ([][2]float64, error) {
	raw, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("coordinates must be an array of positions, got %T", v)
	}
	out := make([][2]float64, len(raw))
	for i, e := range raw {
		c, err := asCoord(e)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func asLines(v any) ([][][2]float64, error) {
	raw, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("coordinates must be an array of lines, got %T", v)
	}
	out := make([][][2]float64, len(raw))
	for i, e := range raw {
		cs, err := asLine(e)
		if err != nil {
			return nil, err
		}
		out[i] = cs
	}
	return out, nil
}

// pointDataReference extracts the Point features of a parsed collection:
// either every Point carries a "t" / "value" property or none does.
func pointDataReference(fc *FeatureCollection) (pts []geom.Point, times, values []float64, err error) {
	for i, f := range fc.Features {
		c, ok := f.Geometry.Coordinates.([2]float64)
		if f.Geometry.Type != "Point" || !ok {
			continue
		}
		pts = append(pts, geom.Point{X: c[0], Y: c[1]})
		t, hasT, err := numProp(f.Properties, "t")
		if err != nil {
			return nil, nil, nil, fmt.Errorf("geojson: feature %d: %w", i, err)
		}
		v, hasV, err := numProp(f.Properties, "value")
		if err != nil {
			return nil, nil, nil, fmt.Errorf("geojson: feature %d: %w", i, err)
		}
		if hasT {
			times = append(times, t)
		}
		if hasV {
			values = append(values, v)
		}
		if n := len(pts); (times != nil && len(times) != n) || (values != nil && len(values) != n) {
			return nil, nil, nil, fmt.Errorf("geojson: feature %d: every Point must carry the same optional properties (t/value)", i)
		}
	}
	return pts, times, values, nil
}

func numProp(props map[string]any, key string) (float64, bool, error) {
	v, ok := props[key]
	if !ok {
		return 0, false, nil
	}
	f, ok := v.(float64)
	if !ok {
		return 0, false, fmt.Errorf("property %q is %T, want number", key, v)
	}
	return f, true, nil
}
