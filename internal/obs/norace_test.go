//go:build !race

package obs

// raceEnabled reports that the race detector instruments this binary.
const raceEnabled = false
