//go:build race

package blockstore

// raceEnabled reports whether the race detector is active; the
// silent-corruption meter skips under it, since instrumentation makes
// its thousand reads take minutes and the race suite checks
// concurrency, not content.
const raceEnabled = true
