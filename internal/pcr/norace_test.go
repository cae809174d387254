//go:build !race

package pcr

const raceEnabled = false
