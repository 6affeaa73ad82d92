//go:build race

package partition

// The race detector's instrumentation allocates on its own account, so
// allocation counts under it are not the ones
// TestApplyBatchAllocatesNothingInSteadyState pins.
const raceEnabled = true
