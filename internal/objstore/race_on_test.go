//go:build race

package objstore

// raceEnabled reports whether the race detector is active; allocation
// accounting is unreliable under it, so alloc-count tests skip.
const raceEnabled = true
