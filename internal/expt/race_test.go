//go:build race

package expt

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
