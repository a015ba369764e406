//go:build !race

package cyclic

const raceEnabled = false
