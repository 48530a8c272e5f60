package geojson

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"geostat/internal/geom"
	"geostat/internal/raster"
)

func decode(t *testing.T, fc *FeatureCollection) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON produced: %v", err)
	}
	return out
}

func features(t *testing.T, out map[string]any) []any {
	t.Helper()
	if out["type"] != "FeatureCollection" {
		t.Fatalf("type = %v", out["type"])
	}
	return out["features"].([]any)
}

func TestPointsAndProperties(t *testing.T) {
	fc := NewCollection()
	fc.AddPoint(geom.Point{X: 1.5, Y: -2}, map[string]any{"kind": "event"})
	fc.AddPoint(geom.Point{X: 0, Y: 0}, nil)
	fc.AddPoint(geom.Point{X: 3, Y: 4}, nil)
	fs := features(t, decode(t, fc))
	if len(fs) != 3 {
		t.Fatalf("features = %d", len(fs))
	}
	f0 := fs[0].(map[string]any)
	g0 := f0["geometry"].(map[string]any)
	if g0["type"] != "Point" {
		t.Errorf("geometry type = %v", g0["type"])
	}
	cs := g0["coordinates"].([]any)
	if cs[0].(float64) != 1.5 || cs[1].(float64) != -2 {
		t.Errorf("coordinates = %v", cs)
	}
	if f0["properties"].(map[string]any)["kind"] != "event" {
		t.Error("properties lost")
	}
}

func TestLineAndSegments(t *testing.T) {
	fc := NewCollection()
	fc.AddLine([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}, nil)
	fc.AddSegments([]raster.Segment{
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 1, Y: 0}},
		{A: geom.Point{X: 1, Y: 0}, B: geom.Point{X: 1, Y: 1}},
	}, map[string]any{"level": 0.5})
	fs := features(t, decode(t, fc))
	line := fs[0].(map[string]any)["geometry"].(map[string]any)
	if line["type"] != "LineString" {
		t.Errorf("line type = %v", line["type"])
	}
	if len(line["coordinates"].([]any)) != 3 {
		t.Error("line coordinate count")
	}
	multi := fs[1].(map[string]any)["geometry"].(map[string]any)
	if multi["type"] != "MultiLineString" {
		t.Errorf("segments type = %v", multi["type"])
	}
	if len(multi["coordinates"].([]any)) != 2 {
		t.Error("segment count")
	}
}

func TestBBoxPolygonClosed(t *testing.T) {
	fc := NewCollection()
	fc.AddBBox(geom.BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 3}, nil)
	fs := features(t, decode(t, fc))
	poly := fs[0].(map[string]any)["geometry"].(map[string]any)
	if poly["type"] != "Polygon" {
		t.Fatalf("type = %v", poly["type"])
	}
	ring := poly["coordinates"].([]any)[0].([]any)
	if len(ring) != 5 {
		t.Fatalf("ring length = %d, want 5 (closed)", len(ring))
	}
	first, last := ring[0].([]any), ring[4].([]any)
	if first[0] != last[0] || first[1] != last[1] {
		t.Error("ring not closed")
	}
}

func TestGridCells(t *testing.T) {
	spec := geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 2, 2)
	g := raster.NewGrid(spec)
	g.Set(0, 0, 5)
	g.Set(1, 1, 2)
	fc := NewCollection()
	fc.AddGridCells(g, 3, "density")
	fs := features(t, decode(t, fc))
	if len(fs) != 1 {
		t.Fatalf("cells above threshold = %d, want 1", len(fs))
	}
	props := fs[0].(map[string]any)["properties"].(map[string]any)
	if props["density"].(float64) != 5 {
		t.Errorf("density property = %v", props["density"])
	}
}

func TestWriteFile(t *testing.T) {
	fc := NewCollection()
	fc.AddPoint(geom.Point{X: 1, Y: 2}, nil)
	path := filepath.Join(t.TempDir(), "out.geojson")
	if err := fc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyCollectionIsValid(t *testing.T) {
	out := decode(t, NewCollection())
	if len(features(t, out)) != 0 {
		t.Error("empty collection has features")
	}
}
