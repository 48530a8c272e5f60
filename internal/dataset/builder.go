package dataset

// Builder accumulates a dataset's columns row by row, in insertion order.
// It is the one construction path from rows: New, FromPoints, the CSV
// reader and the GeoJSON upload decoder all append through it, straight
// into the columns the Dataset keeps, so nothing is copied once decoded.
// It checks nothing: callers that need the invariants call Validate on the
// result.
//
// Which optional columns the dataset carries is fixed by Reset, not by the
// rows that arrive: Digest hashes a presence tag per column, so a CSV
// header x,y,t with no rows below it still yields a dataset that HasTimes.
//
// The zero value holds an empty dataset without optional columns.
type Builder struct {
	x, y, t, v []float64
}

// Reset empties b for about n points and fixes which optional columns it
// carries. n only presizes the columns; appending more is fine.
func (b *Builder) Reset(n int, hasT, hasV bool) {
	*b = Builder{x: make([]float64, 0, n), y: make([]float64, 0, n)}
	if hasT {
		b.t = make([]float64, 0, n)
	}
	if hasV {
		b.v = make([]float64, 0, n)
	}
}

// HasTimes and HasValues report the presence Reset fixed.
func (b *Builder) HasTimes() bool  { return b.t != nil }
func (b *Builder) HasValues() bool { return b.v != nil }

// Add appends one point with its time t and value v; t and v are ignored
// for a column b does not carry.
func (b *Builder) Add(x, y, t, v float64) {
	b.x = append(b.x, x)
	b.y = append(b.y, y)
	if b.t != nil {
		b.t = append(b.t, t)
	}
	if b.v != nil {
		b.v = append(b.v, v)
	}
}

// Dataset returns the dataset of everything appended, with its chunk
// aggregates built, and leaves b as the zero Builder. The columns move into
// the dataset without a copy.
func (b *Builder) Dataset() *Dataset {
	d := &Dataset{x: b.x, y: b.y, times: b.t, values: b.v, chunks: buildChunks(b.x, b.y)}
	*b = Builder{}
	return d
}
