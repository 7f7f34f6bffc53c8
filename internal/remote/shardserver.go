package remote

import (
	"fmt"
	"math"
	"net/http"

	"milret"
)

// ShardServer serves one partition's database over the shard RPC: a
// single POST endpoint that reads one request frame and writes one
// response frame. It is mounted alongside the JSON surface by
// `milret shard-serve` (conventionally at /rpc), so a shard host stays
// inspectable with curl while coordinators speak the binary protocol.
type ShardServer struct {
	db *milret.Database
	// ReadOnly rejects opMutate with ErrCodeBadRequest, mirroring the
	// JSON surface's -readonly mode.
	ReadOnly bool
}

// NewShardServer returns a shard RPC handler over db.
func NewShardServer(db *milret.Database) *ShardServer {
	return &ShardServer{db: db}
}

func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "shard RPC requires POST", http.StatusMethodNotAllowed)
		return
	}
	op, body, err := readFrame(r.Body, maxRequestBody)
	if err != nil {
		// The request frame never parsed; there is no protocol state to
		// answer within. Plain 400 — the client reports it as transport.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rop, rbody := s.dispatch(op, body)
	// The response frame is self-checking (CRC); HTTP status stays 200
	// even for opError so proxies do not re-interpret shard verdicts.
	if err := WriteFrame(w, rop, rbody); err != nil {
		// The response writer failed mid-frame — the client sees a torn
		// frame and handles it as a transport error. Nothing to add.
		return
	}
}

// concept rebuilds a request's geometry and checks it against this
// partition's dimensionality, so a malformed frame is answered as a bad
// request and never reaches a scan.
func (s *ShardServer) concept(g Geometry) (*milret.Concept, error) {
	c, err := milret.NewConcept(g.Point, g.Weights)
	if err != nil {
		return nil, err
	}
	return c, s.db.CheckConcept(c)
}

// dispatch evaluates one request and returns the response frame's op
// and body.
func (s *ShardServer) dispatch(op byte, body []byte) (byte, []byte) {
	fail := func(code uint8, format string, args ...any) (byte, []byte) {
		return opError, encodeError(code, fmt.Sprintf(format, args...))
	}
	switch op {
	case opPing:
		status, _ := s.db.Verification()
		return opPing, PingResponse{
			Images: uint64(s.db.Len()),
			Verify: uint8(status),
		}.encode()

	case opStats:
		b, err := encodeStats(s.db.Stats())
		if err != nil {
			return fail(ErrCodeInternal, "remote: encode stats: %v", err)
		}
		return opStats, b

	case opTopK:
		q, err := decodeTopKRequest(body)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		c, err := s.concept(q.Concept)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		results := s.db.RetrieveExcluding(c, q.K, q.Exclude, milret.WithCutoffSeed(q.Seed))
		// A full k results bounds the global k-th best by this
		// partition's k-th best; fewer than k bound nothing.
		cutoff := math.Inf(1)
		if len(results) == q.K && q.K > 0 {
			cutoff = results[q.K-1].Distance
		}
		return opTopK, TopKResponse{Cutoff: cutoff, Results: results}.encode()

	case opMultiTopK:
		q, err := decodeMultiTopKRequest(body)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		concepts := make([]*milret.Concept, len(q.Concepts))
		for i, g := range q.Concepts {
			if concepts[i], err = milret.NewConcept(g.Point, g.Weights); err != nil {
				return fail(ErrCodeBadRequest, "concept %d: %v", i, err)
			}
		}
		lists, err := s.db.RetrieveMany(concepts, q.K, q.Exclude)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		return opMultiTopK, MultiTopKResponse{Lists: lists}.encode()

	case opFetch:
		q, err := decodeFetchRequest(body)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		resp := FetchResponse{Bags: make([]FetchedBag, len(q.IDs))}
		for i, id := range q.IDs {
			eb, ok := s.db.ExampleBag(id)
			resp.Bags[i] = FetchedBag{ID: id, Found: ok, Instances: eb.Instances}
		}
		return opFetch, resp.encode()

	case opMutate:
		if s.ReadOnly {
			return fail(ErrCodeBadRequest, "remote: shard is read-only")
		}
		q, err := decodeMutateRequest(body)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		switch q.Kind {
		case MutDelete:
			err = s.db.DeleteImage(q.ID)
		case MutLabel:
			err = s.db.UpdateImage(q.ID, q.Label, nil)
		default:
			return fail(ErrCodeBadRequest, "remote: unknown mutation kind %d", q.Kind)
		}
		if err != nil {
			return fail(ErrCodeNotFound, "%v", err)
		}
		// Durable before acked: the coordinator does not retry mutations
		// (they are not idempotent against concurrent writers), so the
		// ack must mean what the local surface's ack means.
		if err := s.db.Flush(); err != nil {
			return fail(ErrCodeInternal, "remote: flush after mutation: %v", err)
		}
		return opMutate, MutateResponse{Images: uint64(s.db.Len())}.encode()

	case opList:
		ids := s.db.IDs()
		resp := ListResponse{Entries: make([]ListEntry, len(ids))}
		for i, id := range ids {
			label, _ := s.db.Label(id)
			resp.Entries[i] = ListEntry{ID: id, Label: label}
		}
		return opList, resp.encode()

	case opGet:
		q, err := decodeGetRequest(body)
		if err != nil {
			return fail(ErrCodeBadRequest, "%v", err)
		}
		label, ok := s.db.Label(q.ID)
		return opGet, GetResponse{Found: ok, Label: label}.encode()
	}
	return fail(ErrCodeBadRequest, "remote: unknown op %d", op)
}
