//go:build race

package engine_test

// The race detector's instrumentation allocates on its own account, so
// allocated bytes under it are not the ones TestDenseRunAllocatesItsClosedForm
// pins.
const raceEnabled = true
