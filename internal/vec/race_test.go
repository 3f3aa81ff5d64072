//go:build race

package vec

// raceSlowdown scales the timing bounds of tests run under the race
// detector, which slows the emit loops by about an order of magnitude.
const raceSlowdown = 10
