package parallel

import "math/rand"

// NewRand returns a rand.Rand over a source seeded with seed. This is the
// repository's single RNG constructor: every generator in production code
// is built here (or per-task via MonteCarloCtx), so a recorded seed
// always reproduces a run bit-for-bit. The geolint seededrand analyzer
// enforces this — rand.New and the math/rand globals are flagged outside
// this package.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// TaskSeed derives the RNG seed of Monte-Carlo task i from a base seed via
// a splitmix64 mix. Adjacent task indices map to statistically independent
// streams, and the mapping depends only on (seed, i) — never on which
// worker runs the task — which is what makes parallel permutation tests
// bit-identical across worker counts.
func TaskSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
