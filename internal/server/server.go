// Package server exposes the retrieval system over HTTP with a small JSON
// API, turning the library into the interactive image-database service the
// paper describes (a user iteratively queries with examples and refines
// with feedback):
//
//	GET    /v1/images            → list of {id, label}
//	GET    /v1/images/{id}       → one image's metadata
//	PUT    /v1/images/{id}       → update an image's label (and optionally
//	                               its pixels, as base64 PNG)
//	DELETE /v1/images/{id}       → remove an image
//	POST   /v1/query             → train on examples and rank
//	POST   /v1/retrieve/batch    → rank several concept geometries and/or
//	                               example-based queries as one batch
//	GET    /v1/stats             → scoring-index, mutation-lifecycle,
//	                               concept-cache and training metrics
//	GET    /v1/healthz           → liveness probe + data verification state
//
// The query request body:
//
//	{
//	  "positives": ["img-1", "img-2"],
//	  "negatives": ["img-9"],
//	  "k": 20,
//	  "mode": "constrained",       // original | identical | constrained
//	  "beta": 0.5,
//	  "exclude_examples": true,
//	  "cache_bypass": false        // force retraining past the concept cache
//	}
//
// When the database has a concept cache (milret.Options.ConceptCacheMB,
// `milret serve -concept-cache-mb`), a repeat /v1/query is served without
// retraining and concurrent identical queries coalesce onto one training
// run; the reply's "cache" field reports the disposition and /v1/stats
// carries the hit/miss/coalesced counters.
//
// Training is CPU-bound (typically tens to hundreds of milliseconds at the
// paper's scale), so queries run synchronously; concurrent queries and
// mutations are safe — the database serializes writes and queries scan
// immutable snapshots. A successful DELETE/PUT response means the mutation
// is durable: the handler flushes the database's mutation log (a no-op for
// in-memory databases) before acknowledging. Set ReadOnly to refuse
// mutations entirely.
package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"net/http"
	"strings"
	"time"

	"milret"
)

const (
	// maxK bounds a single query's result size.
	maxK = 1000
	// maxBatchConcepts bounds how many concepts one /v1/retrieve/batch
	// request may carry.
	maxBatchConcepts = 64
)

// Server serves a Backend over HTTP, including its mutation lifecycle.
type Server struct {
	db  Backend
	mux *http.ServeMux
	// ReadOnly refuses DELETE/PUT mutations with 403.
	ReadOnly bool
}

// New builds a server around a directly opened database.
func New(db *milret.Database) *Server {
	return NewBackend(localDB{db})
}

// NewBackend builds a server around any Backend — a local database or a
// distribution coordinator. Routes come from the route table (Routes),
// so the registered surface and the documented surface are the same
// list.
func NewBackend(b Backend) *Server {
	s := &Server{db: b, mux: http.NewServeMux()}
	for _, rt := range routeTable {
		s.mux.HandleFunc(rt.Pattern, rt.handler(s))
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ImageInfo is the metadata returned for one image.
type ImageInfo struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
}

// QueryRequest is the /v1/query body.
type QueryRequest struct {
	Positives       []string `json:"positives"`
	Negatives       []string `json:"negatives"`
	K               int      `json:"k"`
	Mode            string   `json:"mode"`
	Beta            float64  `json:"beta"`
	ExcludeExamples bool     `json:"exclude_examples"`
	// ReturnConcept asks for the trained concept's geometry in the reply,
	// so the client can replay it (here or on another replica) through
	// /v1/retrieve/batch without retraining.
	ReturnConcept bool `json:"return_concept"`
	// CacheBypass forces a fresh training run past the concept cache
	// (neither consulting nor populating it). No effect when the server's
	// database has no cache.
	CacheBypass bool `json:"cache_bypass"`
	// Recall changes no result: every scan is exact, which meets any
	// recall target. It sets only the reply's Prune. The field stays
	// because the benchmark harness, which is frozen, sends it (ROADMAP
	// item 5).
	Recall *float64 `json:"recall"`
}

// ConceptGeometry is a trained concept's point and weights as carried over
// the wire: the exact inputs NewConcept/RetrieveMany accept.
type ConceptGeometry struct {
	Point   []float64 `json:"point"`
	Weights []float64 `json:"weights"`
}

// QueryResult is one ranked hit.
type QueryResult struct {
	ID       string  `json:"id"`
	Label    string  `json:"label,omitempty"`
	Distance float64 `json:"distance"`
}

// QueryResponse is the /v1/query reply. Cache reports how the concept was
// obtained — "hit", "miss", "coalesced" or "bypass" — and is omitted when
// the database has no concept cache.
type QueryResponse struct {
	Results  []QueryResult    `json:"results"`
	NegLogDD float64          `json:"neg_log_dd"`
	TrainMS  int64            `json:"train_ms"`
	Concept  *ConceptGeometry `json:"concept,omitempty"`
	Cache    string           `json:"cache,omitempty"`
	// Prune echoes the request's recall: omitted when it was absent or
	// ≤ 0, "filtered" otherwise. Both are the same exact answer by the
	// same scan. The field stays because the benchmark harness, which is
	// frozen, checks it (ROADMAP item 5).
	Prune string `json:"prune,omitempty"`
}

// BatchQuery is one example-based entry of a /v1/retrieve/batch request:
// the same training inputs as /v1/query, trained through the concept
// cache, without a per-query result budget (the batch's k applies).
type BatchQuery struct {
	Positives   []string `json:"positives"`
	Negatives   []string `json:"negatives"`
	Mode        string   `json:"mode"`
	Beta        float64  `json:"beta"`
	CacheBypass bool     `json:"cache_bypass"`
}

// BatchRetrieveRequest is the /v1/retrieve/batch body: pre-trained concept
// geometries and/or example-based queries to rank against the database as
// one batch. Queries go through the concept cache, so a batch of repeat or
// duplicate queries pays for at most the distinct training runs before its
// scans — the coalesced query pipeline. The exclude list applies to every
// entry.
type BatchRetrieveRequest struct {
	Concepts []ConceptGeometry `json:"concepts"`
	Queries  []BatchQuery      `json:"queries"`
	K        int               `json:"k"`
	Exclude  []string          `json:"exclude"`
	// Recall sets only the reply's Prune, as in QueryRequest.Recall.
	Recall *float64 `json:"recall"`
}

// BatchRetrieveResponse is the /v1/retrieve/batch reply: one ranking per
// requested entry — concepts first in request order, then queries in
// request order. QueryCache reports each query's cache disposition
// (parallel to the request's queries); TrainMS is the total time spent
// training them.
type BatchRetrieveResponse struct {
	Results    [][]QueryResult `json:"results"`
	ScanMS     int64           `json:"scan_ms"`
	TrainMS    int64           `json:"train_ms,omitempty"`
	QueryCache []string        `json:"query_cache,omitempty"`
	// Prune echoes the request's recall (see QueryResponse.Prune).
	Prune string `json:"prune,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// handleHealth reports liveness plus the backing store's data-verification
// state: "verified", "pending" (a background checksum of a fast-loaded
// block is still running) or "corrupt". A corrupt block degrades the probe
// to 503 — results served from it cannot be trusted, and orchestrators
// should rotate the replica out.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, verr := s.db.Verification()
	body := map[string]any{"status": "ok", "images": s.db.Len(), "data": status.String()}
	code := http.StatusOK
	if status == milret.VerifyCorrupt {
		body["status"] = "degraded"
		if verr != nil {
			body["error"] = verr.Error()
		}
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleStats serves the backend's stats tree as it is declared:
// json.Marshal(milret.Stats), the same JSON the shard RPC's stats op
// carries.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET only"})
		return
	}
	st := s.db.Stats()
	if st.Shards == nil {
		// A coordinator with every partition down has no rows; clients
		// still get an array.
		st.Shards = []milret.ShardStats{}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleImages(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET only"})
		return
	}
	infos, err := s.db.Images()
	if err != nil {
		writeJSON(w, errStatus(err, http.StatusInternalServerError), errorBody{err.Error()})
		return
	}
	if infos == nil {
		infos = []ImageInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

// errStatus maps a backend failure to its HTTP status: an unreachable
// partition (milret.ErrUnavailable) is a serving failure — 503, so load
// balancers rotate away — while anything else keeps the handler's
// fallback (usually a client error).
func errStatus(err error, fallback int) int {
	if errors.Is(err, milret.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

// UpdateImageRequest is the PUT /v1/images/{id} body. Label replaces the
// stored label; PNGBase64, when present, replaces the stored image pixels
// (the PNG is re-featurized server-side).
type UpdateImageRequest struct {
	Label     string `json:"label"`
	PNGBase64 string `json:"png_base64,omitempty"`
}

func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/images/")
	switch r.Method {
	case http.MethodGet:
		label, ok, err := s.db.Label(id)
		if err != nil {
			writeJSON(w, errStatus(err, http.StatusInternalServerError), errorBody{err.Error()})
			return
		}
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("no image %q", id)})
			return
		}
		writeJSON(w, http.StatusOK, ImageInfo{ID: id, Label: label})
	case http.MethodDelete:
		s.handleDeleteImage(w, r, id)
	case http.MethodPut:
		s.handleUpdateImage(w, r, id)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET, PUT or DELETE only"})
	}
}

// mutable gates the mutation endpoints and reports whether to proceed.
func (s *Server) mutable(w http.ResponseWriter) bool {
	if s.ReadOnly {
		writeJSON(w, http.StatusForbidden, errorBody{"server is read-only"})
		return false
	}
	return true
}

// ack makes a successful mutation durable before acknowledging it: the
// database's pending mutation journal is flushed to the write-ahead log (a
// no-op for unbound in-memory databases). A flush failure is reported as
// 500 — the mutation is applied in memory but not persisted.
func (s *Server) ack(w http.ResponseWriter, body any) {
	if err := s.db.Flush(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{fmt.Sprintf("flush: %v", err)})
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDeleteImage(w http.ResponseWriter, r *http.Request, id string) {
	if !s.mutable(w) {
		return
	}
	if err := s.db.DeleteImage(id); err != nil {
		writeJSON(w, errStatus(err, http.StatusNotFound), errorBody{err.Error()})
		return
	}
	s.ack(w, map[string]any{"deleted": id, "images": s.db.Len()})
}

func (s *Server) handleUpdateImage(w http.ResponseWriter, r *http.Request, id string) {
	if !s.mutable(w) {
		return
	}
	var req UpdateImageRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request: %v", err)})
		return
	}
	var img image.Image
	if req.PNGBase64 != "" {
		raw, err := base64.StdEncoding.DecodeString(req.PNGBase64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad png_base64: %v", err)})
			return
		}
		if img, err = png.Decode(bytes.NewReader(raw)); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad PNG: %v", err)})
			return
		}
	}
	if _, ok, err := s.db.Label(id); err != nil {
		writeJSON(w, errStatus(err, http.StatusInternalServerError), errorBody{err.Error()})
		return
	} else if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("no image %q", id)})
		return
	}
	if err := s.db.UpdateImage(id, req.Label, img); err != nil {
		writeJSON(w, errStatus(err, http.StatusBadRequest), errorBody{err.Error()})
		return
	}
	s.ack(w, ImageInfo{ID: id, Label: req.Label})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST only"})
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request: %v", err)})
		return
	}
	if len(req.Positives) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"at least one positive example required"})
		return
	}
	k := req.K
	if k <= 0 {
		k = 20
	}
	if k > maxK {
		k = maxK
	}
	mode, err := weightMode(req.Mode)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}

	start := time.Now()
	// The request context bounds the coalesced wait: a client gone away (or
	// a force-closed connection during shutdown) releases this handler
	// instead of stranding it behind another request's training run.
	concept, outcome, err := s.db.TrainCachedContext(r.Context(), req.Positives, req.Negatives, milret.TrainOptions{
		Mode:        mode,
		Beta:        req.Beta,
		BypassCache: req.CacheBypass,
	})
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; nobody reads this reply. 499-style bail.
			return
		}
		// Unknown example IDs are client errors (400); an unreachable
		// example owner in a topology is a serving failure (503).
		writeJSON(w, errStatus(err, http.StatusBadRequest), errorBody{err.Error()})
		return
	}
	trainMS := time.Since(start).Milliseconds()

	var exclude []string
	if req.ExcludeExamples {
		exclude = append(append([]string{}, req.Positives...), req.Negatives...)
	}
	hits, err := s.db.Retrieve(r.Context(), concept, k, exclude, 0)
	if err != nil {
		writeJSON(w, errStatus(err, http.StatusBadRequest), errorBody{err.Error()})
		return
	}
	resp := QueryResponse{NegLogDD: concept.NegLogDD(), TrainMS: trainMS, Prune: pruneDisposition(req.Recall)}
	if outcome != milret.CacheDisabled {
		resp.Cache = outcome.String()
	}
	if req.ReturnConcept {
		resp.Concept = &ConceptGeometry{Point: concept.Point(), Weights: concept.Weights()}
	}
	for _, h := range hits {
		resp.Results = append(resp.Results, QueryResult{ID: h.ID, Label: h.Label, Distance: h.Distance})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRetrieveBatch ranks several pre-trained concept geometries and/or
// example-based queries as one batch over one pinned snapshot of the
// scoring index (Database.RetrieveMany). Geometries are the serving-side half of
// train-once/replay-anywhere: clients obtain them from /v1/query with
// return_concept, or train offline. Queries are trained server-side
// through the concept cache, so a repeat-heavy batch pays only for its
// distinct training runs before the scans.
func (s *Server) handleRetrieveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST only"})
		return
	}
	var req BatchRetrieveRequest
	// Budget ~16KB of JSON per 100-dim concept; 8MB comfortably covers the
	// 64-concept default cap.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request: %v", err)})
		return
	}
	total := len(req.Concepts) + len(req.Queries)
	if total == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"at least one concept or query required"})
		return
	}
	if total > maxBatchConcepts {
		writeJSON(w, http.StatusBadRequest,
			errorBody{fmt.Sprintf("%d entries exceeds the limit of %d", total, maxBatchConcepts)})
		return
	}
	k := req.K
	if k <= 0 {
		k = 20
	}
	if k > maxK {
		k = maxK
	}
	concepts := make([]*milret.Concept, 0, total)
	for i, g := range req.Concepts {
		c, err := milret.NewConcept(g.Point, g.Weights)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("concept %d: %v", i, err)})
			return
		}
		concepts = append(concepts, c)
	}
	// The example-based entries of the pipeline: each trained through the
	// concept cache (repeat queries hit, duplicates within the batch pay
	// once — milret.TrainMany), then every concept — replayed and freshly
	// trained alike — is ranked in the one batch below.
	var queryCache []string
	var trainMS int64
	if len(req.Queries) > 0 {
		// Validate every entry's static fields before any training runs:
		// rejecting a malformed query N must not cost queries 0..N-1 their
		// optimizer passes first.
		specs := make([]milret.QuerySpec, len(req.Queries))
		for i, q := range req.Queries {
			if len(q.Positives) == 0 {
				writeJSON(w, http.StatusBadRequest,
					errorBody{fmt.Sprintf("query %d: at least one positive example required", i)})
				return
			}
			mode, err := weightMode(q.Mode)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("query %d: %v", i, err)})
				return
			}
			specs[i] = milret.QuerySpec{
				Positives: q.Positives,
				Negatives: q.Negatives,
				Opts: milret.TrainOptions{
					Mode:        mode,
					Beta:        q.Beta,
					BypassCache: q.CacheBypass,
				},
			}
		}
		trainStart := time.Now()
		trained, outcomes, err := s.db.TrainManyContext(r.Context(), specs)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; see handleQuery
			}
			// TrainMany identifies the failing query by index.
			writeJSON(w, errStatus(err, http.StatusBadRequest), errorBody{err.Error()})
			return
		}
		trainMS = time.Since(trainStart).Milliseconds()
		concepts = append(concepts, trained...)
		// Disposition is uniform across a batch — CacheDisabled exactly
		// when the database has no cache — and then the field is omitted,
		// mirroring /v1/query's reply.
		if len(outcomes) > 0 && outcomes[0] != milret.CacheDisabled {
			queryCache = make([]string, len(outcomes))
			for i, out := range outcomes {
				queryCache[i] = out.String()
			}
		}
	}
	start := time.Now()
	rankings, err := s.db.RetrieveBatch(r.Context(), concepts, k, req.Exclude, 0)
	if err != nil {
		writeJSON(w, errStatus(err, http.StatusBadRequest), errorBody{err.Error()})
		return
	}
	resp := BatchRetrieveResponse{
		Results:    make([][]QueryResult, len(rankings)),
		ScanMS:     time.Since(start).Milliseconds(),
		TrainMS:    trainMS,
		QueryCache: queryCache,
		Prune:      pruneDisposition(req.Recall),
	}
	for i, hits := range rankings {
		rs := make([]QueryResult, 0, len(hits))
		for _, h := range hits {
			rs = append(rs, QueryResult{ID: h.ID, Label: h.Label, Distance: h.Distance})
		}
		resp.Results[i] = rs
	}
	writeJSON(w, http.StatusOK, resp)
}

// pruneDisposition renders a request's recall as the reply's prune
// field: "" when it is absent or ≤ 0, "filtered" otherwise.
func pruneDisposition(recall *float64) string {
	if recall == nil || *recall <= 0 {
		return ""
	}
	return "filtered"
}

// weightMode resolves a request's "mode"; absent means constrained.
func weightMode(name string) (milret.WeightMode, error) {
	if name == "" {
		return milret.ConstrainedWeights, nil
	}
	return milret.ParseWeightMode(name)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
