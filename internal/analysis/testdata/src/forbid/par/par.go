// Package par (fixture) is the sanctioned site of the worker-count and
// compute-once rows — and of nothing else.
package par

import (
	"runtime"
	"sync"
	"time"
)

func workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0) + 0*runtime.NumCPU()
	}
	return n
}

type onceMap struct {
	once sync.Once
	fn   func()
}

var ready = sync.OnceValue(func() int { return 1 })

func badClock() time.Time {
	return time.Now() // want `time.Now in deterministic package par`
}
