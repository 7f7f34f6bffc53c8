package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"milret"
	"milret/internal/core"
	"milret/internal/synth"
)

// testServerCached is testServer with the concept cache enabled.
func testServerCached(t *testing.T) (*Server, *milret.Database) {
	t.Helper()
	db, err := milret.NewDatabase(milret.Options{ConceptCacheMB: 8})
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

func ddEvals() int64 {
	dd, _ := core.TrainerEvals()
	return dd
}

// TestQueryCacheHitSkipsTrainer is the serving-side acceptance check: a
// repeat /v1/query must be answered without invoking the trainer (proved
// by the process-wide trainer-call counter standing still) and return the
// identical ranking.
func TestQueryCacheHitSkipsTrainer(t *testing.T) {
	s, _ := testServerCached(t)
	req := QueryRequest{
		Positives: []string{"object-car-00", "object-car-01"},
		Negatives: []string{"object-lamp-00"},
		K:         3,
		Mode:      "identical",
	}

	before := ddEvals()
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var first QueryResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Fatalf("first query cache = %q, want miss", first.Cache)
	}
	if ddEvals() == before {
		t.Fatal("first query did not invoke the trainer")
	}

	before = ddEvals()
	rec, body = doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", rec.Code, body)
	}
	var second QueryResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("repeat query cache = %q, want hit", second.Cache)
	}
	if got := ddEvals(); got != before {
		t.Fatalf("repeat query invoked the trainer (%d new evals)", got-before)
	}
	if !reflect.DeepEqual(first.Results, second.Results) || first.NegLogDD != second.NegLogDD {
		t.Fatal("cached reply differs from the original")
	}

	// cache_bypass forces a fresh run.
	bypass := req
	bypass.CacheBypass = true
	before = ddEvals()
	rec, body = doJSON(t, s, http.MethodPost, "/v1/query", bypass)
	if rec.Code != http.StatusOK {
		t.Fatalf("bypass status %d: %s", rec.Code, body)
	}
	var third QueryResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cache != "bypass" {
		t.Fatalf("bypass query cache = %q", third.Cache)
	}
	if ddEvals() == before {
		t.Fatal("bypass did not invoke the trainer")
	}
	if !reflect.DeepEqual(third.Results, first.Results) {
		t.Fatal("bypassed retraining returned a different ranking (training should be deterministic)")
	}

	// The stats endpoint carries the counters.
	rec, body = doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st milret.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("stats cache block missing")
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Bypassed != 1 {
		t.Fatalf("stats cache = %+v", *st.Cache)
	}
	if st.Cache.Entries != 1 || st.Cache.Bytes <= 0 {
		t.Fatalf("stats cache occupancy = %+v", *st.Cache)
	}
}

// TestQueryCacheFieldAbsentWhenDisabled: a cacheless server must not grow
// a "cache" field in replies or stats.
func TestQueryCacheFieldAbsentWhenDisabled(t *testing.T) {
	s, _ := testServer(t)
	req := QueryRequest{Positives: []string{"object-car-00"}, K: 2, Mode: "identical"}
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cache"]; ok {
		t.Fatal("cache field present without a concept cache")
	}
	rec, body = doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cache"]; ok {
		t.Fatal("stats cache block present without a concept cache")
	}
	// The batch pipeline mirrors /v1/query: no query_cache field either.
	breq := BatchRetrieveRequest{Queries: []BatchQuery{{Positives: []string{"object-car-00"}, Mode: "identical"}}, K: 2}
	rec, body = doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", breq)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["query_cache"]; ok {
		t.Fatal("query_cache present without a concept cache")
	}
}

// TestRetrieveBatchQueryPipeline: /v1/retrieve/batch accepts example-based
// queries alongside geometries, trains them through the cache (a repeat of
// an earlier /v1/query hits) and ranks everything in one scan, each entry
// equal to its single-request counterpart.
func TestRetrieveBatchQueryPipeline(t *testing.T) {
	s, _ := testServerCached(t)

	// Prime the cache and obtain a geometry to replay.
	qreq := QueryRequest{
		Positives:     []string{"object-car-00", "object-car-01"},
		Negatives:     []string{"object-lamp-00"},
		K:             4,
		Mode:          "identical",
		ReturnConcept: true,
	}
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", qreq)
	if rec.Code != http.StatusOK {
		t.Fatalf("prime status %d: %s", rec.Code, body)
	}
	var primed QueryResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}
	if primed.Concept == nil {
		t.Fatal("no concept geometry returned")
	}

	// Second single query to compare the batch's fresh entry against.
	pantsReq := QueryRequest{Positives: []string{"object-pants-00", "object-pants-01"}, K: 4, Mode: "identical"}
	rec, body = doJSON(t, s, http.MethodPost, "/v1/query", pantsReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("pants status %d: %s", rec.Code, body)
	}
	var pants QueryResponse
	if err := json.Unmarshal(body, &pants); err != nil {
		t.Fatal(err)
	}

	before := ddEvals()
	breq := BatchRetrieveRequest{
		Concepts: []ConceptGeometry{*primed.Concept},
		Queries: []BatchQuery{
			{Positives: qreq.Positives, Negatives: qreq.Negatives, Mode: "identical"}, // repeat → hit
			{Positives: pantsReq.Positives, Mode: "identical"},                        // repeat → hit
		},
		K: 4,
	}
	rec, body = doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", breq)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, body)
	}
	var bresp BatchRetrieveResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 3 {
		t.Fatalf("batch returned %d rankings, want 3", len(bresp.Results))
	}
	if want := []string{"hit", "hit"}; !reflect.DeepEqual(bresp.QueryCache, want) {
		t.Fatalf("query_cache = %v, want %v", bresp.QueryCache, want)
	}
	if got := ddEvals(); got != before {
		t.Fatalf("fully cached batch invoked the trainer (%d new evals)", got-before)
	}
	// Geometry replay, cached repeat and the original single queries all
	// agree (the single queries did not exclude their examples).
	if !reflect.DeepEqual(bresp.Results[0], primed.Results) ||
		!reflect.DeepEqual(bresp.Results[1], primed.Results) {
		t.Fatal("batch car rankings differ from the single-query ranking")
	}
	if !reflect.DeepEqual(bresp.Results[2], pants.Results) {
		t.Fatal("batch pants ranking differs from the single-query ranking")
	}
}

func TestRetrieveBatchQueryValidation(t *testing.T) {
	s, _ := testServerCached(t)
	cases := []struct {
		name string
		req  BatchRetrieveRequest
	}{
		{"empty", BatchRetrieveRequest{}},
		{"query without positives", BatchRetrieveRequest{Queries: []BatchQuery{{Negatives: []string{"object-car-00"}}}}},
		{"unknown mode", BatchRetrieveRequest{Queries: []BatchQuery{{Positives: []string{"object-car-00"}, Mode: "nope"}}}},
		{"unknown example", BatchRetrieveRequest{Queries: []BatchQuery{{Positives: []string{"missing"}}}}},
	}
	for _, tc := range cases {
		if rec, body := doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", tc.req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, rec.Code, body)
		}
	}
	// The entry cap counts geometries and queries together.
	over := BatchRetrieveRequest{
		Concepts: make([]ConceptGeometry, maxBatchConcepts),
		Queries:  []BatchQuery{{Positives: []string{"object-car-00"}}},
	}
	for i := range over.Concepts {
		over.Concepts[i] = ConceptGeometry{Point: []float64{1}, Weights: []float64{1}}
	}
	if rec, body := doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", over); rec.Code != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit") {
		t.Errorf("over cap: status %d (%s), want 400 naming the limit", rec.Code, body)
	}
}
