package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"geostat"
)

// studyBox is the extent of every generated dataset.
var studyBox = geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

// layoutSeed fixes where the hotspots of every dataset lie. The run's seed
// draws the points, not the scenario: with the hotspots in the same place
// for every seed, op costs depend on the workload's parameters and not on
// where a seed happened to drop its clusters.
const layoutSeed = 1

// lattice is the side of the hotspot lattice: one Gaussian hotspot in each
// of lattice×lattice cells of the study box.
const lattice = 4

// clustered returns n seeded points from 16 equal Gaussian hotspots (σ = 4),
// one per lattice cell at a fixed jittered position, plus 30 % uniform
// noise. Any window made of whole cells holds the same share of the points.
func clustered(seed int64, n int) *geostat.Dataset {
	layout := geostat.NewRand(layoutSeed)
	cell := studyBox.Width() / lattice
	cs := make([]geostat.GaussianCluster, 0, lattice*lattice)
	for iy := 0; iy < lattice; iy++ {
		for ix := 0; ix < lattice; ix++ {
			cs = append(cs, geostat.GaussianCluster{
				Center: geostat.Point{
					X: (float64(ix) + 0.3 + 0.4*layout.Float64()) * cell,
					Y: (float64(iy) + 0.3 + 0.4*layout.Float64()) * cell,
				},
				Sigma: 4, Weight: 1,
			})
		}
	}
	return geostat.GaussianClusters(geostat.NewRand(seed), n, studyBox, cs, 0.3)
}

// zoomWindows returns count of the four quadrants of the study box in a
// seeded order: each is 2×2 lattice cells, a quarter of the area and, by
// construction, a quarter of the hotspots.
func zoomWindows(rng *rand.Rand, count int) []geostat.BBox {
	half := studyBox.Width() / 2
	out := make([]geostat.BBox, count)
	for i, p := range rng.Perm(4)[:count] {
		x, y := float64(p%2)*half, float64(p/2)*half
		out[i] = geostat.BBox{MinX: x, MinY: y, MaxX: x + half, MaxY: y + half}
	}
	return out
}

// withSurveyField attaches a smooth measured value (trend + one bump +
// noise) so the interpolation and autocorrelation tools apply.
func withSurveyField(seed int64, d *geostat.Dataset) *geostat.Dataset {
	return geostat.WithField(geostat.NewRand(seed), d, func(q geostat.Point) float64 {
		dx, dy := q.X-35, q.Y-35
		return 10 + q.X/10 + q.Y/20 + 5*math.Exp(-(dx*dx+dy*dy)/450)
	}, 0.5)
}

// csvBytes encodes d in the upload format of POST /v1/datasets/{name}.
func csvBytes(d *geostat.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := geostat.WriteCSV(&buf, d); err != nil {
		return nil, fmt.Errorf("encode csv: %w", err)
	}
	return buf.Bytes(), nil
}

// geojsonBytes encodes d as a FeatureCollection of Point features with a
// "value" property, the other upload format. Coordinates and values are
// written in shortest round-trip decimal, so the server parses the same
// float64 columns it gets from csvBytes.
func geojsonBytes(d *geostat.Dataset) ([]byte, error) {
	fc := geostat.NewGeoJSON()
	vals := d.Values()
	for i := 0; i < d.N(); i++ {
		var props map[string]any
		if vals != nil {
			props = map[string]any{"value": vals[i]}
		}
		fc.AddPoint(d.Point(i), props)
	}
	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		return nil, fmt.Errorf("encode geojson: %w", err)
	}
	return buf.Bytes(), nil
}
