package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"milret"
	"milret/internal/server"
)

// serveTestStore serves a tiny cached database the way `milret serve`
// does and returns the host:port to hand to -addr.
func serveTestStore(t *testing.T) string {
	t.Helper()
	dbPath := filepath.Join(t.TempDir(), "db.milret")
	buildTestStore(t, dbPath)
	db, err := milret.LoadDatabase(dbPath, milret.Options{ConceptCacheMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db))
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

func readReport(t *testing.T, path string) ltReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep ltReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLoadtestSmoke drives steady mixed load against a served tiny corpus
// and checks the report's deterministic properties: every traffic class
// shows up, nothing errors, and the JSON report round-trips.
func TestLoadtestSmoke(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	err := cmdLoadtest([]string{
		"-addr", serveTestStore(t),
		"-duration", "1500ms",
		"-concurrency", "2",
		"-queries", "2",
		"-mutate-every", "5",
		"-batch-every", "4",
		"-out", outPath,
	})
	if err != nil {
		t.Fatalf("loadtest: %v", err)
	}
	rep := readReport(t, outPath)

	if rep.Steady == nil || rep.Steady.Ops == 0 {
		t.Fatalf("steady phase ran no ops: %+v", rep.Steady)
	}
	if rep.Steady.Errors != 0 {
		t.Fatalf("steady phase had %d errors", rep.Steady.Errors)
	}
	for _, class := range []string{"query-miss", "query-hit", "batch", "mutation"} {
		if rep.Steady.Classes[class] == nil || rep.Steady.Classes[class].Count == 0 {
			t.Fatalf("steady phase missing %q traffic: %v", class, rep.Steady.Classes)
		}
	}
}

// TestLoadtestOpenLoop covers the paced (open-loop) generator: a modest
// rate over a short window still produces ops and a rate echo in the
// report.
func TestLoadtestOpenLoop(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	err := cmdLoadtest([]string{
		"-addr", serveTestStore(t),
		"-duration", "900ms",
		"-concurrency", "2",
		"-rate", "40",
		"-queries", "1",
		"-out", outPath,
	})
	if err != nil {
		t.Fatalf("loadtest: %v", err)
	}
	rep := readReport(t, outPath)
	if rep.Steady.Ops == 0 {
		t.Fatal("open-loop phase ran no ops")
	}
	if rep.RatePerSec != 40 {
		t.Fatalf("rate echo = %v", rep.RatePerSec)
	}
}

// TestLoadtestRequiresAddr: the driver owns no server, and says where the
// self-contained run lives.
func TestLoadtestRequiresAddr(t *testing.T) {
	err := cmdLoadtest([]string{"-duration", "100ms"})
	if err == nil {
		t.Fatal("loadtest without -addr returned nil")
	}
	for _, want := range []string{"-addr", "bash bench/run.sh"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// queryStub answers every /v1/query with an empty hit after running
// before — a server reduced to its latency.
func queryStub(t *testing.T, before func(r *http.Request)) *ltGen {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		before(r)
		json.NewEncoder(w).Encode(server.QueryResponse{Cache: "hit"})
	}))
	t.Cleanup(ts.Close)
	return &ltGen{base: ts.URL, specs: []ltSpec{{Positives: []string{"a", "b"}}}, k: 1}
}

// TestOpenLoopOverloadShowsQueueDelayAndDrops: at 200 ops/s offered to
// one worker and a server that takes 50 ms, most ticks find the worker
// busy. The report must say so (dropped) and the ops that did run must be
// timed from when they were due, not from when the worker got to them.
func TestOpenLoopOverloadShowsQueueDelayAndDrops(t *testing.T) {
	gen := queryStub(t, func(*http.Request) { time.Sleep(50 * time.Millisecond) })
	ph := runPhase(gen, 1, 200, 600*time.Millisecond)
	if ph.Errors != 0 || ph.Ops == 0 {
		t.Fatalf("phase: %+v", ph)
	}
	if ph.Dropped == 0 {
		t.Fatalf("dropped = 0 with %d ops served of ~120 offered", ph.Ops)
	}
	// One tick waits in the queue for most of the 50 ms the previous op
	// holds the worker, so the median is service time plus that wait.
	if p50 := ph.Classes["query-hit"].P50MS; p50 < 70 {
		t.Fatalf("p50 = %.1f ms: queue delay is missing from the latency (service time alone is 50 ms)", p50)
	}
}

// TestHungServerCostsErrorsNotAHang: a server that accepts and never
// answers must not hold the workers past the phase; each expired request
// is an "error" sample.
func TestHungServerCostsErrorsNotAHang(t *testing.T) {
	release := make(chan struct{})
	gen := queryStub(t, func(r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer close(release)
	gen.client.Timeout = 100 * time.Millisecond

	done := make(chan *ltPhase, 1)
	go func() { done <- runPhase(gen, 2, 0, 300*time.Millisecond) }()
	select {
	case ph := <-done:
		if ph.Ops == 0 || ph.Errors != ph.Ops {
			t.Fatalf("want every op an error, got %+v", ph)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runPhase still blocked 5 s after a 300 ms phase against a hung server")
	}
}
