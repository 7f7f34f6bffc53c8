package server

import (
	"context"
	"image"
	"net/http"

	"milret"
)

// Backend is what the HTTP surface serves: everything the /v1 handlers
// need from "the database", abstracted so the same surface fronts a
// directly opened *milret.Database (localDB) or a distribution
// coordinator fanning out to a topology of partitions
// (internal/remote.Coordinator). Methods that can fail for
// infrastructure reasons return errors; implementations signal an
// unreachable-partition failure by wrapping milret.ErrUnavailable,
// which the handlers map to 503 instead of 4xx.
type Backend interface {
	// Verification reports the data-integrity state backing /v1/healthz.
	Verification() (milret.VerifyStatus, error)
	// Len returns the live image count (best-effort for a coordinator
	// with unreachable partitions).
	Len() int
	// Recall returns the default candidate-pruning tier for queries that
	// do not override it.
	Recall() float64
	// Stats returns the full stats tree for /v1/stats.
	Stats() milret.Stats
	// Images enumerates live images.
	Images() ([]ImageInfo, error)
	// Label resolves one image's metadata; ok is false when the image
	// does not exist (err then stays nil unless the owner is
	// unreachable).
	Label(id string) (label string, ok bool, err error)
	// DeleteImage removes an image; the mutation must be routed to its
	// owner.
	DeleteImage(id string) error
	// UpdateImage replaces an image's label and, when img is non-nil,
	// its pixels.
	UpdateImage(id, label string, img image.Image) error
	// TrainCachedContext trains (or cache-serves) one concept from
	// example IDs.
	TrainCachedContext(ctx context.Context, positives, negatives []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error)
	// TrainManyContext trains one concept per spec through the cache.
	TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error)
	// Retrieve returns the k best matches for the concept at the given
	// recall (≤ 0 forces the exact scan).
	Retrieve(ctx context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error)
	// RetrieveBatch ranks several concepts as one batch: element i is
	// exactly what Retrieve returns for concept i.
	RetrieveBatch(ctx context.Context, concepts []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error)
	// Flush makes acknowledged mutations durable (the mutation ack
	// barrier).
	Flush() error
}

// localDB adapts a directly opened database to the Backend interface.
// The context parameters are accepted and ignored: in-process scans are
// not cancellable (they finish in bounded time), and the training path
// takes the context through TrainCachedContext already.
type localDB struct{ db *milret.Database }

func (l localDB) Verification() (milret.VerifyStatus, error) { return l.db.Verification() }
func (l localDB) Len() int                                   { return l.db.Len() }
func (l localDB) Recall() float64                            { return l.db.Recall() }
func (l localDB) Stats() milret.Stats                        { return l.db.Stats() }
func (l localDB) Flush() error                               { return l.db.Flush() }
func (l localDB) DeleteImage(id string) error                { return l.db.DeleteImage(id) }

func (l localDB) Images() ([]ImageInfo, error) {
	ids := l.db.IDs()
	infos := make([]ImageInfo, 0, len(ids))
	for _, id := range ids {
		label, _ := l.db.Label(id)
		infos = append(infos, ImageInfo{ID: id, Label: label})
	}
	return infos, nil
}

func (l localDB) Label(id string) (string, bool, error) {
	label, ok := l.db.Label(id)
	return label, ok, nil
}

func (l localDB) UpdateImage(id, label string, img image.Image) error {
	return l.db.UpdateImage(id, label, img)
}

func (l localDB) TrainCachedContext(ctx context.Context, positives, negatives []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	return l.db.TrainCachedContext(ctx, positives, negatives, opts)
}

func (l localDB) TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error) {
	return l.db.TrainManyContext(ctx, specs)
}

func (l localDB) Retrieve(_ context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	return l.db.RetrieveExcluding(c, k, exclude, milret.WithRecall(recall)), nil
}

func (l localDB) RetrieveBatch(_ context.Context, concepts []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error) {
	return l.db.RetrieveMany(concepts, k, exclude, milret.WithRecall(recall))
}

// Route describes one HTTP route of the /v1 surface. Routes() is the
// single source of truth: NewBackend registers handlers from this
// table, and the docs test (internal/docscheck) verifies docs/API.md
// documents every entry — so the mux, this table and the reference
// cannot drift apart independently.
type Route struct {
	// Pattern is the mux pattern ("/v1/images/" matches by prefix).
	Pattern string
	// Methods lists the verbs the handler accepts.
	Methods []string
	// Doc is a one-line summary.
	Doc string
}

// routeSpec pairs the public Route with its handler constructor.
type routeSpec struct {
	Route
	handler func(*Server) http.HandlerFunc
}

var routeTable = []routeSpec{
	{Route{"/v1/healthz", []string{"GET"}, "liveness probe + data verification state"},
		func(s *Server) http.HandlerFunc { return s.handleHealth }},
	{Route{"/v1/images", []string{"GET"}, "list live images as {id, label}"},
		func(s *Server) http.HandlerFunc { return s.handleImages }},
	{Route{"/v1/images/", []string{"GET", "PUT", "DELETE"}, "read, relabel/re-featurize, or delete one image"},
		func(s *Server) http.HandlerFunc { return s.handleImage }},
	{Route{"/v1/query", []string{"POST"}, "train on examples (through the concept cache) and rank"},
		func(s *Server) http.HandlerFunc { return s.handleQuery }},
	{Route{"/v1/retrieve/batch", []string{"POST"}, "rank several concept geometries and/or queries as one batch"},
		func(s *Server) http.HandlerFunc { return s.handleRetrieveBatch }},
	{Route{"/v1/stats", []string{"GET"}, "index, mutation, cache, training, prune and partition metrics"},
		func(s *Server) http.HandlerFunc { return s.handleStats }},
}

// Routes returns the /v1 route table (copies; callers cannot mutate the
// registration source).
func Routes() []Route {
	out := make([]Route, len(routeTable))
	for i, rs := range routeTable {
		out[i] = Route{Pattern: rs.Pattern, Methods: append([]string(nil), rs.Methods...), Doc: rs.Doc}
	}
	return out
}
