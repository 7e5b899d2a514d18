//go:build race

package sketch

// raceEnabled reports a -race build, whose instrumentation changes
// some allocation counts.
const raceEnabled = true
