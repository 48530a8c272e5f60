//go:build race

package kde

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops pooled items at random on purpose.
const raceEnabled = true
