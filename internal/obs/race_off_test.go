//go:build !race

package obs

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
