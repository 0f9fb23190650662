//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops some of the
// buffers handed back to it on purpose.
const raceEnabled = true
