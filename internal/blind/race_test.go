//go:build race

package blind

// raceEnabled reports a -race build, whose instrumentation changes
// some allocation counts.
const raceEnabled = true
