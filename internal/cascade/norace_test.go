//go:build !race

package cascade

// raceEnabled reports a race-detector build, whose sync.Pool drops
// Puts at random, so allocation pins over pooled paths skip.
const raceEnabled = false
