//go:build race

package placement

// raceEnabled reports whether the race detector is instrumenting this
// build. Under it sync.Pool drops a random quarter of the items put into
// it, so recycled leaves get reallocated and the alloc test skips.
const raceEnabled = true
