//go:build !race

package dynamic

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
