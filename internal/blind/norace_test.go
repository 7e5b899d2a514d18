//go:build !race

package blind

const raceEnabled = false
