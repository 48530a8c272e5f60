package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest returns a hex SHA-256 over the dataset's exact binary content:
// the point count followed by the x, y and optional time/value columns as
// little-endian IEEE-754 bit patterns, each optional column prefixed by a
// presence tag, and last the absent tag 0 of the retired weight column,
// which keeps every digest (and so every shard placement name) as it was.
// Two datasets share a digest iff every stored float64 is bit-identical in
// the same order — the placement check the shard coordinator uses to
// verify a worker holds the same dataset it planned against.
func (d *Dataset) Digest() string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeCol := func(tag uint64, col []float64) {
		if col == nil {
			writeU64(0)
			return
		}
		writeU64(tag)
		for _, v := range col {
			writeU64(math.Float64bits(v))
		}
	}
	writeU64(uint64(len(d.x)))
	for i := range d.x {
		writeU64(math.Float64bits(d.x[i]))
		writeU64(math.Float64bits(d.y[i]))
	}
	writeCol(1, d.times)
	writeCol(2, d.values)
	writeU64(0)
	return hex.EncodeToString(h.Sum(nil))
}
