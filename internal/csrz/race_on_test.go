//go:build race

package csrz

// raceEnabled reports that this test binary was built with the race
// detector, whose own allocations a heap measure would count.
const raceEnabled = true
