//go:build !race

package partition

// raceEnabled is true only under the race detector (race_enabled_test.go).
const raceEnabled = false
