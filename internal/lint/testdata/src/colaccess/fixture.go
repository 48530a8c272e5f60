// Fixture for the colaccess analyzer: the dataset's columnar storage
// (dataset.Columns and dataset.Chunk fields) is a shared read-only view.
// Reads pass; writes, compound assignments, ++/-- and address-taking are
// flagged everywhere outside internal/dataset.
package fixture

import (
	"geostat/internal/dataset"
	"geostat/internal/geom"
)

func reads(d *dataset.Dataset) float64 {
	// Reading the columns and chunk aggregates is the supported hot path.
	cols := d.Columns()
	sum := 0.0
	for _, ch := range d.Chunks() {
		for i := ch.Lo; i < ch.Hi; i++ {
			sum += cols.X[i] * cols.Y[i]
		}
	}
	return sum
}

func writes(d *dataset.Dataset) {
	cols := d.Columns()
	cols.X = nil          // want `write to dataset column storage Columns\.X`
	cols.X[0] = 1         // want `write to dataset column storage Columns\.X`
	cols.Chunks = nil     // want `write to dataset column storage Columns\.Chunks`
	cols.Chunks[0].Lo = 3 // want `write to dataset column storage Chunk\.Lo`

	chunks := d.Chunks()
	chunks[0].Hi++           // want `write to dataset column storage Chunk\.Hi`
	chunks[0].BBox.MinX = 99 // want `write to dataset column storage Chunk\.BBox`
}

func addresses(d *dataset.Dataset) {
	cols := d.Columns()
	p := &cols.Y // want `address of dataset column storage Columns\.Y`
	_ = p
	chunks := d.Chunks()
	bb := &chunks[0].BBox // want `address of dataset column storage Chunk\.BBox`
	_ = bb
}

func unrelated() {
	// Same field names on other types pass untouched.
	var pt geom.Point
	pt.X = 1
	pt.Y = 2
	box := geom.BBox{MinX: pt.X, MinY: pt.Y}
	box.MaxX = 5
	_ = box
}

func suppressed(d *dataset.Dataset) {
	cols := d.Columns()
	//lint:allow colaccess fixture exercises the suppression path
	cols.Y = nil
}
