//go:build race

package apps

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates and defeats byte-exact heap
// assertions.
const raceEnabled = true
