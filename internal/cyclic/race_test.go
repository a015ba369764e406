//go:build race

package cyclic

// raceEnabled reports a -race build, whose instrumentation slows the
// wall-clock bound of TestLinearIntake several times over.
const raceEnabled = true
