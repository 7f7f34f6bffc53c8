package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"image/png"
	"net/http"
	"path/filepath"
	"testing"

	"milret"
	"milret/internal/synth"
)

func TestDeleteImageEndpoint(t *testing.T) {
	s, db := testServer(t)
	n := db.Len()
	rec, body := doJSON(t, s, http.MethodDelete, "/v1/images/object-car-00", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, body)
	}
	var resp map[string]any
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp["deleted"] != "object-car-00" || int(resp["images"].(float64)) != n-1 {
		t.Fatalf("delete response: %v", resp)
	}
	if db.Len() != n-1 {
		t.Fatalf("Len = %d, want %d", db.Len(), n-1)
	}
	if rec, _ := doJSON(t, s, http.MethodGet, "/v1/images/object-car-00", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted image still served: %d", rec.Code)
	}
	if rec, _ := doJSON(t, s, http.MethodDelete, "/v1/images/object-car-00", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete status %d", rec.Code)
	}
	// Queries no longer rank the deleted image.
	qrec, qbody := doJSON(t, s, http.MethodPost, "/v1/query", QueryRequest{
		Positives: []string{"object-car-01"}, K: db.Len(), Mode: "identical",
	})
	if qrec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", qrec.Code, qbody)
	}
	var qresp QueryResponse
	if err := json.Unmarshal(qbody, &qresp); err != nil {
		t.Fatal(err)
	}
	for _, r := range qresp.Results {
		if r.ID == "object-car-00" {
			t.Fatal("deleted image ranked")
		}
	}
}

func TestUpdateImageEndpoint(t *testing.T) {
	s, db := testServer(t)

	// Label-only update.
	rec, body := doJSON(t, s, http.MethodPut, "/v1/images/object-car-00", UpdateImageRequest{Label: "automobile"})
	if rec.Code != http.StatusOK {
		t.Fatalf("put status %d: %s", rec.Code, body)
	}
	if lb, _ := db.Label("object-car-00"); lb != "automobile" {
		t.Fatalf("label after PUT: %q", lb)
	}

	// Full pixel update: re-encode a lamp image as base64 PNG.
	var buf bytes.Buffer
	for _, it := range synth.ObjectsN(29, 1) {
		if it.Label == "lamp" {
			if err := png.Encode(&buf, it.Image); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	req := UpdateImageRequest{Label: "lamp", PNGBase64: base64.StdEncoding.EncodeToString(buf.Bytes())}
	rec, body = doJSON(t, s, http.MethodPut, "/v1/images/object-car-00", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pixel PUT status %d: %s", rec.Code, body)
	}
	if lb, _ := db.Label("object-car-00"); lb != "lamp" {
		t.Fatalf("label after pixel PUT: %q", lb)
	}

	// Validation: unknown ID, bad base64, bad PNG, unknown fields.
	if rec, _ := doJSON(t, s, http.MethodPut, "/v1/images/ghost", UpdateImageRequest{Label: "x"}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id PUT status %d", rec.Code)
	}
	if rec, _ := doJSON(t, s, http.MethodPut, "/v1/images/object-car-01", UpdateImageRequest{PNGBase64: "!!!"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad base64 status %d", rec.Code)
	}
	if rec, _ := doJSON(t, s, http.MethodPut, "/v1/images/object-car-01",
		UpdateImageRequest{PNGBase64: base64.StdEncoding.EncodeToString([]byte("notapng"))}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad PNG status %d", rec.Code)
	}
	if rec, _ := doJSON(t, s, http.MethodPut, "/v1/images/object-car-01", map[string]any{"surprise": 1}); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", rec.Code)
	}
	// POST on the item path is not a thing.
	if rec, _ := doJSON(t, s, http.MethodPost, "/v1/images/object-car-01", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST item status %d", rec.Code)
	}
}

func TestReadOnlyRefusesMutations(t *testing.T) {
	s, db := testServer(t)
	s.ReadOnly = true
	n := db.Len()
	if rec, _ := doJSON(t, s, http.MethodDelete, "/v1/images/object-car-00", nil); rec.Code != http.StatusForbidden {
		t.Fatalf("read-only DELETE status %d", rec.Code)
	}
	if rec, _ := doJSON(t, s, http.MethodPut, "/v1/images/object-car-00", UpdateImageRequest{Label: "x"}); rec.Code != http.StatusForbidden {
		t.Fatalf("read-only PUT status %d", rec.Code)
	}
	if db.Len() != n {
		t.Fatal("read-only server mutated the database")
	}
}

// Mutations against a store-bound database are durable once acknowledged:
// the handler flushes the WAL, so a reload sees them.
func TestMutationsAcknowledgedDurably(t *testing.T) {
	_, db := testServer(t)
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if rec, body := doJSON(t, s, http.MethodDelete, "/v1/images/object-car-00", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, body)
	}
	if rec, body := doJSON(t, s, http.MethodPut, "/v1/images/object-lamp-00", UpdateImageRequest{Label: "lantern"}); rec.Code != http.StatusOK {
		t.Fatalf("put status %d: %s", rec.Code, body)
	}
	var stats milret.Stats
	_, sbody := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PendingMutations != 0 || stats.WALMutations != 2 {
		t.Fatalf("stats after acks: %+v", stats)
	}

	back, err := milret.LoadDatabase(path, milret.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, ok := back.Label("object-car-00"); ok {
		t.Fatal("acknowledged delete not durable")
	}
	if lb, _ := back.Label("object-lamp-00"); lb != "lantern" {
		t.Fatalf("acknowledged update not durable: %q", lb)
	}
}

func TestHealthReportsVerification(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health status %d", rec.Code)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got["data"] != "verified" {
		t.Fatalf("in-memory database health data = %v", got["data"])
	}
}
