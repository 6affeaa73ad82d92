// Package service (fixture) is the sanctioned site of the clock, global-rand
// and HTTP rows: the daemon times requests and serves them. Nothing else is
// sanctioned here.
package service

import (
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

func observe(h http.Handler) time.Duration {
	start := time.Now()
	jitter := time.Duration(rand.Intn(3))
	return time.Since(start) + time.Until(start) + jitter
}

type datasetCache struct {
	once sync.Once // want `sync.Once outside internal/par, in package service: par.OnceMap`
}

func poolSize() int {
	return runtime.NumCPU() // want `runtime.NumCPU in deterministic package service`
}
