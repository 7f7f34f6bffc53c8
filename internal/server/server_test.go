package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"milret"
	"milret/internal/synth"
)

func testServer(t *testing.T) (*Server, *milret.Database) {
	t.Helper()
	db, err := milret.NewDatabase(milret.Options{})
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

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealth(t *testing.T) {
	s, db := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health status %d", rec.Code)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if int(got["images"].(float64)) != db.Len() {
		t.Fatalf("health images = %v, want %d", got["images"], db.Len())
	}
}

func TestStats(t *testing.T) {
	s, db := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var got milret.Stats
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := db.Stats()
	if got.Images != want.Images || got.Instances != want.Instances ||
		got.Dim != want.Dim || got.IndexBytes != want.IndexBytes {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if got.Images != db.Len() || got.Dim != 100 || got.Instances < got.Images ||
		got.IndexBytes != int64(got.Instances*got.Dim*8) {
		t.Fatalf("implausible stats: %+v", got)
	}
	if rec, _ := doJSON(t, s, http.MethodPost, "/v1/stats", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats status %d", rec.Code)
	}
}

func TestListImages(t *testing.T) {
	s, db := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/v1/images", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var infos []ImageInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != db.Len() {
		t.Fatalf("listed %d of %d", len(infos), db.Len())
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/v1/images", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST images status %d", rec.Code)
	}
}

func TestGetImage(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/v1/images/object-car-00", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var info ImageInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Label != "car" {
		t.Fatalf("label %q", info.Label)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/v1/images/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing image status %d", rec.Code)
	}
}

func TestQueryEndToEnd(t *testing.T) {
	s, _ := testServer(t)
	req := QueryRequest{
		Positives:       []string{"object-car-00", "object-car-01"},
		Negatives:       []string{"object-lamp-00"},
		K:               3,
		Mode:            "identical",
		ExcludeExamples: true,
	}
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.ID == "object-car-00" || r.ID == "object-car-01" || r.ID == "object-lamp-00" {
			t.Fatalf("example leaked into results: %s", r.ID)
		}
	}
	if resp.Results[0].Label != "car" {
		t.Fatalf("top hit is %q, want car", resp.Results[0].Label)
	}
	if resp.TrainMS < 0 {
		t.Fatalf("negative training time")
	}
}

// TestStatsTrainBlock: once a query has trained, /v1/stats carries the
// process-cumulative training counters, and a query advances them by one
// start per positive instance (at most 40 regions an image).
func TestStatsTrainBlock(t *testing.T) {
	s, _ := testServer(t)
	readTrain := func() milret.TrainStats {
		rec, body := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
		var resp milret.Stats
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Train
	}
	before := readTrain()
	req := QueryRequest{Positives: []string{"object-car-00", "object-car-01"}, K: 3}
	if rec, body := doJSON(t, s, http.MethodPost, "/v1/query", req); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	after := readTrain()
	starts := after.Starts - before.Starts
	if starts < int64(len(req.Positives)) || starts > 40*int64(len(req.Positives)) {
		t.Fatalf("query added %d starts for %d positives", starts, len(req.Positives))
	}
	if after.Evals-before.Evals < starts {
		t.Fatalf("evals advanced by %d over %d starts", after.Evals-before.Evals, starts)
	}
	// Capped and pruned are disjoint ends of a start, and a query on server
	// defaults races enough starts for its barriers to drop some.
	capped, pruned := after.StartsCapped-before.StartsCapped, after.StartsPruned-before.StartsPruned
	if capped < 0 || pruned < 0 || capped+pruned > starts {
		t.Fatalf("query added %d capped and %d pruned starts of %d", capped, pruned, starts)
	}
	if pruned == 0 {
		t.Fatalf("query raced %d starts and pruned none", starts)
	}
}

// TestRetrieveBatchEndToEnd drives the train-once/replay pattern: train via
// /v1/query with return_concept, then replay the geometry (twice) through
// /v1/retrieve/batch and check both rankings equal the training query's.
func TestRetrieveBatchEndToEnd(t *testing.T) {
	s, _ := testServer(t)
	qreq := QueryRequest{
		Positives:     []string{"object-car-00", "object-car-01"},
		Negatives:     []string{"object-lamp-00"},
		K:             4,
		Mode:          "identical",
		ReturnConcept: true,
	}
	rec, body := doJSON(t, s, http.MethodPost, "/v1/query", qreq)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, body)
	}
	var qresp QueryResponse
	if err := json.Unmarshal(body, &qresp); err != nil {
		t.Fatal(err)
	}
	if qresp.Concept == nil || len(qresp.Concept.Point) == 0 || len(qresp.Concept.Weights) != len(qresp.Concept.Point) {
		t.Fatalf("return_concept gave %+v", qresp.Concept)
	}

	breq := BatchRetrieveRequest{
		Concepts: []ConceptGeometry{*qresp.Concept, *qresp.Concept},
		K:        4,
	}
	rec, body = doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", breq)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, body)
	}
	var bresp BatchRetrieveResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 2 {
		t.Fatalf("got %d rankings", len(bresp.Results))
	}
	for i, ranking := range bresp.Results {
		if !reflect.DeepEqual(ranking, qresp.Results) {
			t.Fatalf("batch ranking %d diverges from query ranking:\ngot  %v\nwant %v",
				i, ranking, qresp.Results)
		}
	}

	// Exclusions must drop the listed IDs from every ranking.
	breq.Exclude = []string{bresp.Results[0][0].ID}
	rec, body = doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", breq)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch-with-exclude status %d: %s", rec.Code, body)
	}
	var eresp BatchRetrieveResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	for _, ranking := range eresp.Results {
		for _, r := range ranking {
			if r.ID == breq.Exclude[0] {
				t.Fatalf("excluded ID %s leaked into batch results", r.ID)
			}
		}
	}
}

func TestRetrieveBatchValidation(t *testing.T) {
	s, _ := testServer(t)
	dim := 100
	good := ConceptGeometry{Point: make([]float64, dim), Weights: make([]float64, dim)}
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no concepts", BatchRetrieveRequest{K: 5}, http.StatusBadRequest},
		{"dim mismatch", BatchRetrieveRequest{Concepts: []ConceptGeometry{{Point: []float64{1}, Weights: []float64{1}}}}, http.StatusBadRequest},
		{"ragged geometry", BatchRetrieveRequest{Concepts: []ConceptGeometry{{Point: make([]float64, dim), Weights: []float64{1}}}}, http.StatusBadRequest},
		{"ok", BatchRetrieveRequest{Concepts: []ConceptGeometry{good}, K: 3}, http.StatusOK},
	}
	for _, tc := range cases {
		rec, body := doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, rec.Code, tc.want, body)
		}
	}
	if rec, _ := doJSON(t, s, http.MethodGet, "/v1/retrieve/batch", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET allowed on batch endpoint: %d", rec.Code)
	}
	over := BatchRetrieveRequest{Concepts: make([]ConceptGeometry, maxBatchConcepts+1)}
	for i := range over.Concepts {
		over.Concepts[i] = good
	}
	if rec, body := doJSON(t, s, http.MethodPost, "/v1/retrieve/batch", over); rec.Code != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit") {
		t.Errorf("oversized batch: %d %s, want 400 naming the limit", rec.Code, body)
	}
}

// TestRetiredModeRefused: the α-hack mode and its "alpha" field are
// gone from both training endpoints. Naming the mode is a 400 that names it;
// sending "alpha" is a 400 for an unknown field, at any value.
func TestRetiredModeRefused(t *testing.T) {
	s, _ := testServer(t)
	for _, tc := range []struct {
		path, body, want string
	}{
		{"/v1/query", `{"positives":["object-car-00"],"mode":"alpha-hack"}`, `unknown mode \"alpha-hack\"`},
		{"/v1/query", `{"positives":["object-car-00"],"alpha":0}`, `unknown field \"alpha\"`},
		{"/v1/retrieve/batch", `{"queries":[{"positives":["object-car-00"],"mode":"alpha-hack"}]}`, `query 0: unknown mode \"alpha-hack\"`},
		{"/v1/retrieve/batch", `{"queries":[{"positives":["object-car-00"],"alpha":50}]}`, `unknown field \"alpha\"`},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s %s: %d %s, want 400 containing %s", tc.path, tc.body, rec.Code, rec.Body, tc.want)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no positives", QueryRequest{K: 5}, http.StatusBadRequest},
		{"unknown id", QueryRequest{Positives: []string{"ghost"}}, http.StatusBadRequest},
		{"bad mode", QueryRequest{Positives: []string{"object-car-00"}, Mode: "quantum"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, body := doJSON(t, s, http.MethodPost, "/v1/query", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, rec.Code, tc.want, body)
		}
	}
	// Malformed JSON.
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d", rec.Code)
	}
	// Unknown fields rejected.
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"positives":["object-car-00"],"surprise":1}`))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", rec.Code)
	}
	// GET on query.
	rec2, _ := doJSON(t, s, http.MethodGet, "/v1/query", nil)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET query status %d", rec2.Code)
	}
}

// kSpy records the k the handlers ask their backend for.
type kSpy struct {
	Backend
	k int
}

func (b *kSpy) Retrieve(ctx context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	b.k = k
	return b.Backend.Retrieve(ctx, c, k, exclude, recall)
}

func TestQueryKClamped(t *testing.T) {
	_, db := testServer(t)
	spy := &kSpy{Backend: localDB{db}}
	req := QueryRequest{Positives: []string{"object-car-00"}, K: 10000, Mode: "identical"}
	rec, body := doJSON(t, NewBackend(spy), http.MethodPost, "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if spy.k != maxK {
		t.Fatalf("k = 10000 reached the backend as %d, want the cap %d", spy.k, maxK)
	}
}
