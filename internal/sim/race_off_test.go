//go:build !race

package sim_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
