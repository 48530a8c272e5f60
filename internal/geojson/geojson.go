// Package geojson exports the library's artifacts as GeoJSON
// FeatureCollections — the interchange format that puts results straight
// into QGIS/ArcGIS and web maps, the integration direction the paper's
// §2.4 "future opportunities for software development" calls for.
// Stdlib-only (encoding/json).
package geojson

import (
	"encoding/json"
	"io"
	"os"

	"geostat/internal/geom"
	"geostat/internal/raster"
)

// Feature is one GeoJSON feature.
type Feature struct {
	Type       string         `json:"type"`
	Geometry   geometry       `json:"geometry"`
	Properties map[string]any `json:"properties,omitempty"`
}

type geometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

// FeatureCollection is a GeoJSON feature collection.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// NewCollection returns an empty feature collection.
func NewCollection() *FeatureCollection {
	return &FeatureCollection{Type: "FeatureCollection", Features: []Feature{}}
}

// AddPoint appends a Point feature.
func (fc *FeatureCollection) AddPoint(p geom.Point, props map[string]any) {
	fc.Features = append(fc.Features, Feature{
		Type:       "Feature",
		Geometry:   geometry{Type: "Point", Coordinates: coord(p)},
		Properties: props,
	})
}

// AddLine appends a LineString feature.
func (fc *FeatureCollection) AddLine(pts []geom.Point, props map[string]any) {
	cs := make([][2]float64, len(pts))
	for i, p := range pts {
		cs[i] = coord(p)
	}
	fc.Features = append(fc.Features, Feature{
		Type:       "Feature",
		Geometry:   geometry{Type: "LineString", Coordinates: cs},
		Properties: props,
	})
}

// AddSegments appends the contour segments as a MultiLineString feature —
// the hotspot outlines of raster.Grid.Contour.
func (fc *FeatureCollection) AddSegments(segs []raster.Segment, props map[string]any) {
	lines := make([][][2]float64, len(segs))
	for i, s := range segs {
		lines[i] = [][2]float64{coord(s.A), coord(s.B)}
	}
	fc.Features = append(fc.Features, Feature{
		Type:       "Feature",
		Geometry:   geometry{Type: "MultiLineString", Coordinates: lines},
		Properties: props,
	})
}

// AddBBox appends the box as a Polygon feature (study-area footprints).
func (fc *FeatureCollection) AddBBox(b geom.BBox, props map[string]any) {
	ring := [][2]float64{
		{b.MinX, b.MinY}, {b.MaxX, b.MinY}, {b.MaxX, b.MaxY}, {b.MinX, b.MaxY}, {b.MinX, b.MinY},
	}
	fc.Features = append(fc.Features, Feature{
		Type:       "Feature",
		Geometry:   geometry{Type: "Polygon", Coordinates: [][][2]float64{ring}},
		Properties: props,
	})
}

// AddGridCells appends one Polygon feature per grid pixel with value >=
// threshold, carrying the value as a property — a vector choropleth of the
// surface's significant cells.
func (fc *FeatureCollection) AddGridCells(g *raster.Grid, threshold float64, valueKey string) {
	cw, ch := g.Spec.CellW(), g.Spec.CellH()
	for iy := 0; iy < g.Spec.NY; iy++ {
		for ix := 0; ix < g.Spec.NX; ix++ {
			v := g.At(ix, iy)
			if v < threshold {
				continue
			}
			x0 := g.Spec.Box.MinX + float64(ix)*cw
			y0 := g.Spec.Box.MinY + float64(iy)*ch
			fc.AddBBox(geom.BBox{MinX: x0, MinY: y0, MaxX: x0 + cw, MaxY: y0 + ch},
				map[string]any{valueKey: v})
		}
	}
}

// Write encodes the collection to w.
func (fc *FeatureCollection) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

// WriteFile encodes the collection to the named file.
func (fc *FeatureCollection) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fc.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func coord(p geom.Point) [2]float64 { return [2]float64{p.X, p.Y} }
