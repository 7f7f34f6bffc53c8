package server

import (
	"bytes"
	"compress/zlib"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"image/png"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
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

// hugeBlankPNG writes an all-zero RGBA PNG of side × side pixels chunk by
// chunk, streaming its rows through zlib, so the test never holds the image:
// at 4096 it is ≈65 KB of file declaring 64 MB of pixels.
func hugeBlankPNG(t *testing.T, side int) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString("\x89PNG\r\n\x1a\n")
	chunk := func(kind string, data []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(data)))
		out.Write(n[:])
		crc := crc32.NewIEEE()
		crc.Write([]byte(kind))
		crc.Write(data)
		out.WriteString(kind)
		out.Write(data)
		binary.BigEndian.PutUint32(n[:], crc.Sum32())
		out.Write(n[:])
	}
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], uint32(side))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(side))
	ihdr[8], ihdr[9] = 8, 6 // 8-bit RGBA
	chunk("IHDR", ihdr)
	var idat bytes.Buffer
	zw := zlib.NewWriter(&idat)
	row := make([]byte, 1+4*side) // filter byte 0, then the pixels
	for y := 0; y < side; y++ {
		if _, err := zw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	chunk("IDAT", idat.Bytes())
	chunk("IEND", nil)
	return out.Bytes()
}

// TestOversizedImageRefusedBeforeDecode: a small PNG that declares
// 4096 × 4096 pixels is refused with 413 from its header alone — the whole
// request allocates under 1 MB, where decoding it would allocate ≈670 MB —
// and the stored image is untouched.
func TestOversizedImageRefusedBeforeDecode(t *testing.T) {
	s, db := testServer(t)
	raw := hugeBlankPNG(t, 4096)
	if cfg, err := png.DecodeConfig(bytes.NewReader(raw)); err != nil || cfg.Width != 4096 || cfg.Height != 4096 {
		t.Fatalf("crafted PNG header: %+v, %v", cfg, err)
	}
	body, err := json.Marshal(UpdateImageRequest{Label: "x", PNGBase64: base64.StdEncoding.EncodeToString(raw)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/images/object-car-00", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a %d-byte PNG allocated %d bytes", len(raw), alloc)
	}
	if lb, _ := db.Label("object-car-00"); lb != "car" {
		t.Fatalf("label after a refused PUT: %q", lb)
	}
	// At the cap an image decodes; one pixel past it is refused.
	if _, err := DecodePNG(hugeBlankPNG(t, 1024)); err != nil {
		t.Fatalf("1024 × 1024: %v", err)
	}
	if _, err := DecodePNG(hugeBlankPNG(t, 1025)); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("1025 × 1025: %v, want ErrImageTooLarge", err)
	}
}
