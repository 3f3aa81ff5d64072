//go:build !race

package catalog

const raceEnabled = false
