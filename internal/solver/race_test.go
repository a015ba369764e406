//go:build race

package solver_test

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of the values put into it.
const raceEnabled = true
