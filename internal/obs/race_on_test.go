//go:build race

package obs

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates and defeats exact
// allocation-count assertions.
const raceEnabled = true
