//go:build race

package client_test

// raceEnabled: under the race detector sync.Pool drops what is put back,
// so an allocation budget reads more than the build it pins.
const raceEnabled = true
