package rs

// PoisonIncrementalPool makes every evaluator Greedy and ExactBB release
// poisoned before it is pooled, for tests outside the package; restore
// undoes it.
func PoisonIncrementalPool() (restore func()) {
	testHookReleaseIncremental = poisonIncremental
	return func() { testHookReleaseIncremental = nil }
}
