//go:build race

package dynamic

// raceEnabled reports that this test binary was built with the race
// detector, whose allocations testing.AllocsPerRun would count.
const raceEnabled = true
