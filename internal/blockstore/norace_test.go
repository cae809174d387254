//go:build !race

package blockstore

const raceEnabled = false
