//go:build !race

package serve

// raceEnabled reports that the race detector instruments this binary.
const raceEnabled = false
