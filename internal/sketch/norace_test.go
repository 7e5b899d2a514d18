//go:build !race

package sketch

const raceEnabled = false
