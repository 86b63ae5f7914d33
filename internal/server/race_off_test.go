//go:build !race

package server

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
