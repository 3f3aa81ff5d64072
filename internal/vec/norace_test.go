//go:build !race

package vec

// raceSlowdown scales the timing bounds of tests; see race_test.go.
const raceSlowdown = 1
