package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"milret"
)

// recallCases are the recall values a request may send, with the prune
// field each must echo. Every one is the same exact scan: an exact answer
// meets any recall target.
var recallCases = []struct {
	recall *float64
	prune  string
}{
	{nil, ""},
	{ptr(-1.0), ""},
	{ptr(0.0), ""},
	{ptr(0.5), "filtered"},
	{ptr(0.9), "filtered"},
	{ptr(1.0), "filtered"},
	{ptr(3.0), "filtered"},
}

func ptr[T any](v T) *T { return &v }

// The wire contract of the recall field: whatever a query sends, the
// results are bit-identical to the request that sends none, and the reply's
// prune field echoes only whether recall was positive.
func TestQueryRecallRoundTrip(t *testing.T) {
	s, _ := testServer(t)
	req := QueryRequest{
		Positives: []string{"object-car-00", "object-car-01"},
		K:         4,
		Mode:      "identical",
	}
	exact := query2(t, s, req)
	if len(exact.Results) != 4 {
		t.Fatalf("exact query returned %d results, want 4", len(exact.Results))
	}
	for _, c := range recallCases {
		req.Recall = c.recall
		got := query2(t, s, req)
		if got.Prune != c.prune {
			t.Fatalf("recall %v: prune disposition %q, want %q", fmtRecall(c.recall), got.Prune, c.prune)
		}
		if !reflect.DeepEqual(got.Results, exact.Results) {
			t.Fatalf("recall %v: results diverged:\n got %+v\nwant %+v", fmtRecall(c.recall), got.Results, exact.Results)
		}
	}
}

func fmtRecall(r *float64) any {
	if r == nil {
		return "absent"
	}
	return *r
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

// The batch endpoint follows the same contract: the disposition is
// reported once and the rankings match the batch that sends no recall.
func TestRetrieveBatchRecall(t *testing.T) {
	s, _ := testServer(t)
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
	exact := batch(req)
	if len(exact.Results) != 2 {
		t.Fatalf("exact batch returned %d rankings, want 2", len(exact.Results))
	}
	for _, c := range recallCases {
		req.Recall = c.recall
		got := batch(req)
		if got.Prune != c.prune {
			t.Fatalf("recall %v: batch disposition %q, want %q", fmtRecall(c.recall), got.Prune, c.prune)
		}
		if !reflect.DeepEqual(got.Results, exact.Results) {
			t.Fatalf("recall %v: batch rankings diverged from the batch without recall", fmtRecall(c.recall))
		}
	}
}

// /v1/stats exposes the top-k scan counters once any query has run, with
// no recall sent: absent before, consistent (screened =
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
