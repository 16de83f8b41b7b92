//go:build !race

package experiment

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
