//go:build !race

package dram_test

// raceEnabled reports that the race detector instruments this binary.
const raceEnabled = false
