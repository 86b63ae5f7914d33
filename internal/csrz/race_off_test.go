//go:build !race

package csrz

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
