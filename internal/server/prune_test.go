package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"milret"
	"milret/internal/synth"
)

// testServerRecall is testServer with the database's pruning default set.
func testServerRecall(t *testing.T, recall float64) (*Server, *milret.Database) {
	t.Helper()
	db, err := milret.NewDatabase(milret.Options{Recall: recall})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range synth.ObjectsN(17, 4) {
		switch it.Label {
		case "car", "lamp", "pants":
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
	return New(db), db
}

// The wire contract of the pruning tier: the query's filter disposition is
// reported, the per-request recall override beats the database default in
// both directions, and at recall 1 the results are bit-identical to the
// exact scan.
func TestQueryRecallRoundTrip(t *testing.T) {
	s, _ := testServerRecall(t, 1)
	req := QueryRequest{
		Positives: []string{"object-car-00", "object-car-01"},
		K:         4,
		Mode:      "identical",
	}
	query := func(req QueryRequest) QueryResponse {
		t.Helper()
		rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	pruned := query(req)
	if pruned.Prune != "filtered" {
		t.Fatalf("prune disposition %q, want filtered", pruned.Prune)
	}
	// Per-request override off: disposition omitted, results identical.
	off := -1.0
	req.Recall = &off
	exact := query(req)
	if exact.Prune != "" {
		t.Fatalf("exact scan disposition %q, want empty", exact.Prune)
	}
	if !reflect.DeepEqual(pruned.Results, exact.Results) {
		t.Fatalf("pruned results diverged:\n got %+v\nwant %+v", pruned.Results, exact.Results)
	}
	// Calibrated tier is reported with its dial.
	cal := 0.9
	req.Recall = &cal
	if got := query(req).Prune; got != "filtered@0.9" {
		t.Fatalf("calibrated disposition %q, want filtered@0.9", got)
	}

	// A database at the default recall echoes a per-request recall too.
	s2, _ := testServer(t)
	req2 := QueryRequest{Positives: []string{"object-car-00", "object-car-01"}, K: 4, Mode: "identical"}
	r2 := query2(t, s2, req2)
	if r2.Prune != "" {
		t.Fatalf("default-off disposition %q, want empty", r2.Prune)
	}
	on := 1.0
	req2.Recall = &on
	r2on := query2(t, s2, req2)
	if r2on.Prune != "filtered" {
		t.Fatalf("opt-in disposition %q, want filtered", r2on.Prune)
	}
	if !reflect.DeepEqual(r2.Results, r2on.Results) {
		t.Fatal("opt-in pruned results diverged from exact")
	}
}

func query2(t *testing.T, s *Server, req QueryRequest) QueryResponse {
	t.Helper()
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// The batch endpoint shares one scan, so recall applies batch-wide: the
// disposition is reported once and the rankings match the exact batch.
func TestRetrieveBatchRecall(t *testing.T) {
	s, _ := testServerRecall(t, 1)
	req := BatchRetrieveRequest{
		Queries: []BatchQuery{
			{Positives: []string{"object-car-00", "object-car-01"}, Mode: "identical"},
			{Positives: []string{"object-lamp-00", "object-lamp-01"}, Mode: "identical"},
		},
		K: 4,
	}
	batch := func(req BatchRetrieveRequest) BatchRetrieveResponse {
		t.Helper()
		rec, body := doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
		var resp BatchRetrieveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	pruned := batch(req)
	if pruned.Prune != "filtered" {
		t.Fatalf("batch disposition %q, want filtered", pruned.Prune)
	}
	off := -1.0
	req.Recall = &off
	exact := batch(req)
	if exact.Prune != "" {
		t.Fatalf("exact batch disposition %q, want empty", exact.Prune)
	}
	if !reflect.DeepEqual(pruned.Results, exact.Results) {
		t.Fatal("pruned batch rankings diverged from exact")
	}
}

// /v1/stats exposes the top-k scan counters once any query has run, with
// recall left at its default: absent before, consistent (screened =
// admitted + rejected) after, and a scan that could not arm the filter —
// here k covering the whole database — shows up as unarmed.
func TestStatsPruneCounters(t *testing.T) {
	s, db := testServer(t)
	present := false
	stats := func() milret.PruneStats {
		t.Helper()
		rec, body := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("stats status %d", rec.Code)
		}
		var st milret.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		present = bytes.Contains(body, []byte(`"prune"`))
		return st.Prune
	}
	if pr := stats(); present {
		t.Fatalf("prune block present before any top-k scan: %+v", pr)
	}
	req := QueryRequest{Positives: []string{"object-car-00", "object-car-01"}, K: 4, Mode: "identical"}
	if rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req); rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, body)
	}
	pr := stats()
	if !present {
		t.Fatal("prune block absent after a top-k scan")
	}
	if pr.Scans != 1 || pr.Unarmed != 0 || pr.Screened == 0 || pr.Admitted+pr.Rejected != pr.Screened {
		t.Fatalf("inconsistent counters: %+v", pr)
	}
	req.K = db.Len()
	if rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req); rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, body)
	}
	if pr := stats(); pr.Scans != 2 || pr.Unarmed != 1 {
		t.Fatalf("k = database size: %+v, want 2 scans, 1 unarmed", pr)
	}
}
