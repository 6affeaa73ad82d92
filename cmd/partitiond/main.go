// Command partitiond is the resident partition-as-a-service daemon: it
// keeps registered datasets loaded in memory and serves assignment lookups,
// churn batches, advisor recommendations, and request metrics over
// HTTP/JSON.
//
// Usage:
//
//	partitiond -addr :8080
//	partitiond -addr :8080 -scale 2 -parts 32 -preload road-ca,livejournal
//	partitiond -addr :8080 -report BENCH_seed1.json   # warm advisor model
//
// The API is documented in docs/SERVICE.md. SIGINT/SIGTERM starts a
// graceful drain: running assignment builds complete (bounded by -drain),
// a build asked for later answers 503, and the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphpart/internal/datasets"
	"graphpart/internal/report"
	"graphpart/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "partitiond:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. The bound address is sent on ready (if
// non-nil) once the listener accepts connections; closing quit triggers
// the same graceful drain a SIGTERM does.
func run(args []string, stdout io.Writer, ready chan<- string, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("partitiond", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr       = fs.String("addr", "127.0.0.1:7474", "listen address")
		scale      = fs.Int("scale", 1, "dataset scale factor")
		seed       = fs.Uint64("seed", 1, "partitioner hash seed")
		workers    = fs.Int("workers", 0, "partitioning/ingress goroutines (0 = all cores)")
		parts      = fs.Int("parts", 16, "default partition count when a request names none")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-request deadline on a wait for a build, counted from arrival")
		maxBody    = fs.Int64("max-body", 8<<20, "max request body bytes before 413")
		drain      = fs.Duration("drain", 30*time.Second, "max time to wait for running builds at shutdown")
		reportPath = fs.String("report", "", "benchrunner report JSON to pre-fit the advisor model from")
		preload    = fs.String("preload", "", "comma-separated dataset names to load before serving")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := service.New(service.Config{
		Scale:          *scale,
		Seed:           *seed,
		Workers:        *workers,
		DefaultParts:   *parts,
		RequestTimeout: *timeout,
		MaxBody:        *maxBody,
	})

	if *reportPath != "" {
		if err := fitFrom(srv, *reportPath); err != nil {
			return fmt.Errorf("warm advisor from %s: %w", *reportPath, err)
		}
		fmt.Fprintf(stdout, "advisor model fitted from %s\n", *reportPath)
	}
	for _, name := range splitList(*preload) {
		if _, err := datasets.Load(name, *scale); err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "preloaded %s (scale %d)\n", name, *scale)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "partitiond listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	case <-quit: // nil when nobody can ask: blocks forever
	}

	fmt.Fprintln(stdout, "partitiond draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Shutdown(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && drainErr == nil {
		drainErr = serveErr
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(stdout, "partitiond stopped")
	return nil
}

// fitFrom runs, on a benchrunner report on disk, the fit POST
// /v1/advisor/fit runs on an uploaded one: /v1/advise answers from the first
// request, with the model an upload of the same file would install.
func fitFrom(srv *service.Server, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := report.Decode(f)
	if err != nil {
		return err
	}
	return srv.Refit(rep)
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
