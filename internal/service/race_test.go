//go:build race

package service

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of the values put into it.
const raceEnabled = true
