package main

import (
	"context"
	"encoding/json"
	"fmt"
	"image"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/server"
)

// Span names. A span's layer rank orders the boundaries from the client
// inwards; a span's parent is the innermost span of a strictly outer
// layer whose interval contains it, so sibling spans that overlap in time
// (four shard handlers serving one fan-out) never adopt each other.
const (
	spanClientOp     = "client.op"
	spanHandler      = "server.handler"
	spanBackend      = "backend." // + method name
	spanShardHandler = "remote.shard_handler"
)

func spanRank(name string) int {
	switch {
	case name == spanClientOp:
		return 0
	case name == spanHandler:
		return 1
	case name == spanShardHandler:
		return 3
	default:
		return 2 // backend.*
	}
}

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Trace is the op index shared by every span of one
// request; Class is the op class (set on client.op spans only).
type span struct {
	Name   string
	Class  opClass
	Trace  int64
	Start  int64
	End    int64
	Parent int // index into the span slice; -1 for a root
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Recording is gated by
// on so the same decorated stack serves the untraced half of a traced
// run (the overhead base). Spans inherit the trace id of the op in
// flight: traced phases run one client, so at most one op is.
type tracer struct {
	on    atomic.Bool
	cur   atomic.Int64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin starts a span; the returned func ends and records it. With
// tracing off both are no-ops.
func (t *tracer) begin(name string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	start := time.Since(t.epoch)
	trace := t.cur.Load()
	return func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Trace: trace, Start: int64(start), End: int64(end), Parent: -1})
		t.mu.Unlock()
	}
}

// record adds a finished client.op span.
func (t *tracer) record(class opClass, trace int64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: spanClientOp, Class: class, Trace: trace,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1,
	})
	t.mu.Unlock()
}

// take returns the recorded spans with parents linked.
func (t *tracer) take() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	linkParents(spans)
	return spans
}

// linkParents sorts spans by start (outer layer first on ties) and sets
// each span's Parent to the innermost containing span of an outer layer.
// It tracks the latest span seen per layer: traced phases run one client,
// so at most one span per outer layer is open at any instant.
func linkParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spanRank(spans[i].Name) < spanRank(spans[j].Name)
	})
	last := [4]int{-1, -1, -1, -1}
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		rank := spanRank(s.Name)
		for r := rank - 1; r >= 0; r-- {
			if p := last[r]; p >= 0 && spans[p].Start <= s.Start && spans[p].End >= s.End {
				s.Parent = p
				break
			}
		}
		last[rank] = i
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (parallel fan-out): the covered part is the union of their
// intervals, clipped to the parent, not the sum.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredBy(spans, children[i], s.Start, s.End)
	}
	return self
}

// coveredBy returns the length of the union of the given spans'
// intervals clipped to [lo, hi].
func coveredBy(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool { return spans[sorted[a]].Start < spans[sorted[b]].Start })
	var covered int64
	end := lo
	for _, i := range sorted {
		s, e := spans[i].Start, spans[i].End
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			end = e
		}
	}
	return covered
}

// traceHeader identifies the build and box a trace came from.
type traceHeader struct {
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"mat_kernel"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each layer gets its own track.
func writeChromeTrace(path string, hdr traceHeader, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"trace": s.Trace}
		if s.Class != "" {
			args["class"] = string(s.Class)
		}
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: spanRank(s.Name),
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args,
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": hdr}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// tracedHandler records one span per request around next.
func tracedHandler(t *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		end := t.begin(name)
		next.ServeHTTP(w, r)
		end()
	})
}

// localBackend is the bench-side equivalent of the server package's
// unexported adapter: a directly opened database as a server.Backend, so
// the traced stack can decorate the same calls server.New makes.
type localBackend struct{ db *milret.Database }

func (l localBackend) Verification() (milret.VerifyStatus, error) { return l.db.Verification() }
func (l localBackend) Len() int                                   { return l.db.Len() }
func (l localBackend) Recall() float64                            { return l.db.Recall() }
func (l localBackend) Stats() milret.Stats                        { return l.db.Stats() }
func (l localBackend) Flush() error                               { return l.db.Flush() }
func (l localBackend) DeleteImage(id string) error                { return l.db.DeleteImage(id) }

func (l localBackend) Images() ([]server.ImageInfo, error) {
	ids := l.db.IDs()
	infos := make([]server.ImageInfo, 0, len(ids))
	for _, id := range ids {
		label, _ := l.db.Label(id)
		infos = append(infos, server.ImageInfo{ID: id, Label: label})
	}
	return infos, nil
}

func (l localBackend) Label(id string) (string, bool, error) {
	label, ok := l.db.Label(id)
	return label, ok, nil
}

func (l localBackend) UpdateImage(id, label string, img image.Image) error {
	return l.db.UpdateImage(id, label, img)
}

func (l localBackend) TrainCachedContext(ctx context.Context, pos, neg []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	return l.db.TrainCachedContext(ctx, pos, neg, opts)
}

func (l localBackend) TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error) {
	return l.db.TrainManyContext(ctx, specs)
}

func (l localBackend) Retrieve(_ context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	return l.db.RetrieveExcluding(c, k, exclude, milret.WithRecall(recall)), nil
}

func (l localBackend) RetrieveBatch(_ context.Context, cs []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error) {
	return l.db.RetrieveMany(cs, k, exclude, milret.WithRecall(recall))
}

// tracedBackend records one backend.<Method> span per call on the
// methods a query, batch or mutation passes through; the bookkeeping
// methods pass straight to the embedded backend.
type tracedBackend struct {
	server.Backend
	t *tracer
}

func (b tracedBackend) Label(id string) (string, bool, error) {
	defer b.t.begin(spanBackend + "Label")()
	return b.Backend.Label(id)
}

func (b tracedBackend) UpdateImage(id, label string, img image.Image) error {
	defer b.t.begin(spanBackend + "UpdateImage")()
	return b.Backend.UpdateImage(id, label, img)
}

func (b tracedBackend) Flush() error {
	defer b.t.begin(spanBackend + "Flush")()
	return b.Backend.Flush()
}

func (b tracedBackend) TrainCachedContext(ctx context.Context, pos, neg []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	defer b.t.begin(spanBackend + "TrainCachedContext")()
	return b.Backend.TrainCachedContext(ctx, pos, neg, opts)
}

func (b tracedBackend) TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error) {
	defer b.t.begin(spanBackend + "TrainManyContext")()
	return b.Backend.TrainManyContext(ctx, specs)
}

func (b tracedBackend) Retrieve(ctx context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	defer b.t.begin(spanBackend + "Retrieve")()
	return b.Backend.Retrieve(ctx, c, k, exclude, recall)
}

func (b tracedBackend) RetrieveBatch(ctx context.Context, cs []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error) {
	defer b.t.begin(spanBackend + "RetrieveBatch")()
	return b.Backend.RetrieveBatch(ctx, cs, k, exclude, recall)
}
