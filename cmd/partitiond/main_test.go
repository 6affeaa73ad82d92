package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphpart/internal/datasets"
	"graphpart/internal/partition"
)

// TestRunServesAndDrains boots the daemon on an ephemeral port with the
// default flags, smoke-tests a request, checks that its Hybrid is the one
// the bench and cmd/partition run (the datasets' high-degree cutoff, not
// the strategy's own default), then closes quit and requires a clean exit
// within the drain deadline — the listener-closes-on-shutdown contract.
func TestRunServesAndDrains(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	quit := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-drain", "10s"}, &out, ready, quit)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	resp, err = http.Get("http://" + addr + "/v1/assignment/livejournal/Hybrid?parts=16")
	if err != nil {
		t.Fatal(err)
	}
	var served struct {
		ReplicationFactor float64 `json:"replicationFactor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	g, err := datasets.Load("livejournal", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.ParallelPartition(g, partition.MustNew("Hybrid", partition.Options{}), 16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.ReplicationFactor(); served.ReplicationFactor != want {
		t.Fatalf("livejournal/Hybrid/16 served RF %.4f, want %.4f (cutoff %d)", served.ReplicationFactor, want, partition.DefaultHybridThreshold)
	}

	close(quit)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within the deadline")
	}
	if _, err := http.Get("http://" + addr + "/v1/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	if !strings.Contains(out.String(), "partitiond stopped") {
		t.Fatalf("missing stop log in output: %q", out.String())
	}
}

// TestRunFlagErrors pins the error paths reachable before the listener
// opens: bad flags, unknown preload dataset, unreadable report.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-preload", "no-such-graph"},
		{"-report", "/does/not/exist.json"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out, nil, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestSplitList covers the preload flag parser.
func TestSplitList(t *testing.T) {
	got := splitList(" road-ca, ,livejournal ,")
	want := fmt.Sprint([]string{"road-ca", "livejournal"})
	if fmt.Sprint(got) != want {
		t.Fatalf("splitList = %v, want %v", got, want)
	}
	if splitList("") != nil {
		t.Fatal("splitList(\"\") should be nil")
	}
}
