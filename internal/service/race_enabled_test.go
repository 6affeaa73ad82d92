//go:build race

package service

// The race detector drops a share of sync.Pool puts and gets on purpose,
// so allocation counts under it are not the ones TestWarmLookupAllocations pins.
const raceEnabled = true
