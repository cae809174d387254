//go:build race

package decode

// raceEnabled reports whether the race detector is active; the
// allocation pin skips under it because instrumentation allocates.
const raceEnabled = true
