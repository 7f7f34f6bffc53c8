package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"milret"
	"milret/internal/synth"
)

// TestStatsWarmLoadedAfterRestart is the serving-side warm-restart check:
// flush → close → reload, and the new server reports the warm-loaded
// entries in /v1/stats and answers the repeat query from them without
// invoking the trainer.
func TestStatsWarmLoadedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.milret")
	ccPath := dbPath + ".ccache"
	opts := milret.Options{Resolution: 6, Regions: 9, ConceptCacheMB: 8, ConceptCacheFile: ccPath}
	db, err := milret.NewDatabase(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range synth.ObjectsN(13, 3) {
		if it.Label == "car" || it.Label == "lamp" {
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Save(dbPath); err != nil {
		t.Fatal(err)
	}

	req := QueryRequest{
		Positives: []string{"object-car-00", "object-car-01"},
		Negatives: []string{"object-lamp-00"},
		K:         3,
		Mode:      "identical",
	}
	s := New(db)
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("prime status %d: %s", rec.Code, body)
	}
	var first QueryResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process image of the same store + sidecar.
	db2, err := milret.LoadDatabase(dbPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := New(db2)

	rec, body = doJSON(t, s2, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st milret.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Cache.WarmLoaded != 1 || st.Cache.Entries != 1 {
		t.Fatalf("restarted stats cache = %+v", st.Cache)
	}

	before := ddEvals()
	rec, body = doJSON(t, s2, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm status %d: %s", rec.Code, body)
	}
	var warm QueryResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "hit" {
		t.Fatalf("post-restart query cache = %q, want hit", warm.Cache)
	}
	if got := ddEvals(); got != before {
		t.Fatalf("warm restart invoked the trainer (%d new evals)", got-before)
	}
	if !reflect.DeepEqual(first.Results, warm.Results) || first.NegLogDD != warm.NegLogDD {
		t.Fatal("warm reply differs from the pre-restart reply")
	}
}

// TestQueryWaiterReleasedOnCancel: a /v1/query coalesced behind another
// request's training run returns as soon as its own context is cancelled
// (the shutdown path force-closes connections, cancelling request
// contexts), while the leader completes and caches normally.
func TestQueryWaiterReleasedOnCancel(t *testing.T) {
	s, _ := testServerCached(t)
	req := QueryRequest{
		Positives: []string{"object-car-00", "object-car-01"},
		K:         3,
		Mode:      "identical",
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// Leader: a real (slow) training run.
	leaderDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
		leaderDone <- rec.Code
	}()

	// Waiters: identical requests with cancellable contexts, cancelled
	// while (most likely) coalesced behind the leader. Whatever phase each
	// one is in, it must return promptly — the assertion is no deadlock.
	ctx, cancel := context.WithCancel(context.Background())
	const n = 4
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)).WithContext(ctx)
			s.ServeHTTP(rec, r)
			done <- struct{}{}
		}()
	}
	cancel()
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("cancelled waiter did not return: shutdown would deadlock")
		}
	}
	select {
	case code := <-leaderDone:
		if code != http.StatusOK {
			t.Fatalf("leader status %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader did not complete")
	}

	// The leader's result landed in the cache despite the cancelled crowd.
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", rec.Code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Fatalf("follow-up cache = %q, want hit", resp.Cache)
	}
}
