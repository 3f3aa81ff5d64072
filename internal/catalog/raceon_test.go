//go:build race

package catalog

// raceEnabled lets the sequential sweeps run a short leg under the race
// detector, which slows them tenfold and checks nothing in them that the
// concurrent tests do not.
const raceEnabled = true
