//go:build race

package sim_test

// raceEnabled reports whether the race detector is active. Its
// instrumentation slows dense linear algebra by more than an order of
// magnitude, so cells dominated by an expm propagator build are
// skipped under -race.
const raceEnabled = true
