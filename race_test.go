//go:build race

package specasan

// raceEnabled reports a -race build, which runs the simulator many times
// slower.
const raceEnabled = true
