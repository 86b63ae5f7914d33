//go:build !race

package apps

const raceEnabled = false
