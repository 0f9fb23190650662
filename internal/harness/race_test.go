//go:build race

package harness

// raceEnabled reports a -race build, whose sync.Pool drops some of the
// storage handed back to it on purpose.
const raceEnabled = true
