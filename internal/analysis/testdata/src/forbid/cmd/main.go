// Package main (fixture): binaries may time themselves, stamp a report with
// the host's core count, link the daemon and check against the oracle, but
// settings still arrive as flags.
package main

import (
	"net/http"
	"os"
	"runtime"
	"time"

	_ "graphpart/internal/oracle"
	"graphpart/internal/service"
)

var _ = service.Config{}

func main() {
	start := time.Now()
	addr := os.Getenv("PARTITIOND_ADDR") // want `os.Getenv in package main: every setting is a flag`
	_ = http.ListenAndServe(addr, nil)
	_, _ = time.Since(start), runtime.NumCPU()
}
