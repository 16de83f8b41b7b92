//go:build race

package experiment

// raceEnabled reports whether the race detector is active. Its
// instrumentation slows dense linear algebra by more than an order of
// magnitude, so the heaviest numerical cells are skipped under -race.
const raceEnabled = true
