package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// CSV layout: a header row followed by one row per point.
//
//	x,y           — purely spatial events
//	x,y,t         — spatiotemporal events
//	x,y,value     — measured field samples
//	x,y,t,value   — both
//
// The header names select the interpretation; column order must match one
// of the four layouts above. This mirrors the minimal schema of the public
// datasets the paper cites (longitude/latitude[/timestamp] exports).

// WriteCSV writes d to w in the layout matching its optional columns.
func WriteCSV(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{"x", "y"}
	if d.HasTimes() {
		header = append(header, "t")
	}
	if d.HasValues() {
		header = append(header, "value")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, 4)
	for i := 0; i < d.N(); i++ {
		x, y := d.XY(i)
		row = row[:0]
		row = append(row, formatF(x), formatF(y))
		if d.HasTimes() {
			row = append(row, formatF(d.times[i]))
		}
		if d.HasValues() {
			row = append(row, formatF(d.values[i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset in the layout written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) { return readCSV(r, 0) }

// DecodeCSV is ReadCSV over a body already in memory. One count of its
// newlines presizes the columns, so each is allocated once at its final
// size; the count is capped at one row per four bytes ("1,2\n" is the
// shortest row), so a body of blank lines cannot inflate it.
func DecodeCSV(body []byte) (*Dataset, error) {
	rows := min(bytes.Count(body, []byte{'\n'}), len(body)/4)
	return readCSV(bytes.NewReader(body), rows)
}

// readCSV tokenizes with encoding/csv and parses each field in place into
// the Builder: the tokenizer's one string per record is the only per-row
// allocation. The header fixes the optional columns, and encoding/csv holds
// every record to the header's field count.
func readCSV(r io.Reader, rows int) (*Dataset, error) {
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
	var b Builder
	b.Reset(rows, hasT, hasV)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		var vals [4]float64
		for i, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d column %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		// x, y, then t and / or value: with both, value is the fourth field.
		t, v := vals[2], vals[2]
		if hasT {
			v = vals[3]
		}
		b.Add(vals[0], vals[1], t, v)
	}
	d := b.Dataset()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadCSVFile reads a dataset from the named file.
func ReadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteCSVFile writes d to the named file, creating or truncating it.
func WriteCSVFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseHeader(h []string) (hasT, hasV bool, err error) {
	switch {
	case eq(h, "x", "y"):
		return false, false, nil
	case eq(h, "x", "y", "t"):
		return true, false, nil
	case eq(h, "x", "y", "value"):
		return false, true, nil
	case eq(h, "x", "y", "t", "value"):
		return true, true, nil
	}
	return false, false, fmt.Errorf("dataset: unrecognised CSV header %v (want x,y[,t][,value])", h)
}

func eq(h []string, want ...string) bool {
	if len(h) != len(want) {
		return false
	}
	for i := range h {
		if h[i] != want[i] {
			return false
		}
	}
	return true
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
