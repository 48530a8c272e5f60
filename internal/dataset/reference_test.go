package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"geostat/internal/geom"
)

// readCSVReference is the CSV reader the Builder replaced: a []float64 per
// row, a []geom.Point column, then the dataset assembled and validated as
// New did before it appended through a Builder. FuzzReadCSV holds ReadCSV
// and DecodeCSV to it.
func readCSVReference(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	hasT, hasV, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	var (
		pts    []geom.Point
		times  []float64
		values []float64
	)
	if hasT {
		times = []float64{}
	}
	if hasV {
		values = []float64{}
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		vals := make([]float64, len(rec))
		for i, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d column %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		col := 2
		pts = append(pts, geom.Point{X: vals[0], Y: vals[1]})
		if hasT {
			times = append(times, vals[col])
			col++
		}
		if hasV {
			values = append(values, vals[col])
		}
	}
	c := MakeColumns(pts)
	d := &Dataset{x: c.X, y: c.Y, chunks: c.Chunks, times: times, values: values}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
