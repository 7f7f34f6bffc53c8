// Package remote is the distribution tier: it serves one shard's scans
// behind a binary RPC (ShardServer), speaks that RPC with
// timeout/retry/backoff (Client), and merges a topology of shard servers
// back into one logical database (Coordinator, which holds one Client
// per partition, no data of its own, and implements the HTTP server's
// Backend).
//
// The merge protocol is the in-process one, stretched across processes.
// Every scan worker's published k-th-best root is an upper bound on the
// global k-th best (it is the k-th best of a candidate subset), so the
// cutoff stays an upper bound no matter how partitions join: the
// coordinator seeds each request with the bound known at send time,
// every response carries the partition's own final bound back, and a
// stale or missing contribution only weakens pruning — never
// correctness. Concatenating per-partition top-k lists and re-sorting
// by (distance, ID) is therefore bit-identical to scanning the union
// in one process (property-tested in remote_test.go).
//
// Wire format ("MILRETR1", CRC-covered like the store formats): one
// request frame up, one response frame down, over a plain HTTP POST —
//
//	magic[8] | op u8 | bodyLen u32 LE | body | crc32(op|bodyLen|body)
//
// Bodies are fixed-layout little-endian (see the per-op types below);
// a response echoes the request op on success or carries opError with a
// machine-readable code. A torn or bit-flipped frame fails the CRC and
// surfaces as a transport error, which the client retries (idempotent
// ops only) and the coordinator's partial-result policy absorbs; an
// opError verdict is the shard's answer and is neither.
package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"milret"
)

// Magic identifies a shard RPC frame, versioned like the store formats
// (MILRETX1, MILRETW1, MILRETS1, MILRETC1).
const Magic = "MILRETR1"

// Frame ops. Requests carry exactly one; responses echo it or carry
// opError. 5 is unassigned.
const (
	opError     byte = 0 // response only: body = code u8 | msg string
	opPing      byte = 1 // health probe: images + verification state
	opStats     byte = 2 // full milret.Stats (JSON body)
	opTopK      byte = 3 // single-concept top-k with cutoff piggyback
	opMultiTopK byte = 4 // batched multi-concept top-k
	opFetch     byte = 6 // example bags by ID (for coordinator training)
	opMutate    byte = 7 // delete / label update, flushed before ack
	opList      byte = 8 // all live image IDs + labels
	opGet       byte = 9 // one image's label
)

// maxFrameBody bounds a frame body so a corrupt length field cannot ask
// the receiver to allocate unbounded memory before the CRC is checked.
// maxRequestBody is the tighter bound a shard server reads request frames
// under — they come from outside, and the buffer is allocated from the
// header alone. It is the JSON batch edge's body limit, so whatever the
// /v1 surface admits still fits its binary form.
const (
	maxFrameBody   = 1 << 28
	maxRequestBody = 8 << 20
)

// Remote error codes carried by opError frames.
const (
	// ErrCodeInternal is a shard-side failure evaluating a well-formed
	// request.
	ErrCodeInternal uint8 = 1
	// ErrCodeNotFound means the addressed image is not live on the shard.
	ErrCodeNotFound uint8 = 2
	// ErrCodeBadRequest means the request cannot be evaluated as stated
	// (bad geometry, unknown op, malformed body).
	ErrCodeBadRequest uint8 = 3
)

// RemoteError is a failure reported by the shard server itself — the
// RPC round-trip succeeded, the request did not. It is deliberately
// distinct from transport failures, which wrap milret.ErrUnavailable:
// a RemoteError must not be retried or absorbed by the partial-result
// policy (the peer is healthy; the request is wrong).
type RemoteError struct {
	Code uint8
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// WriteFrame writes one CRC-covered frame.
func WriteFrame(w io.Writer, op byte, body []byte) error {
	if len(body) > maxFrameBody {
		return fmt.Errorf("remote: frame body %d bytes exceeds limit %d", len(body), maxFrameBody)
	}
	hdr := make([]byte, 0, len(Magic)+5)
	hdr = append(hdr, Magic...)
	hdr = append(hdr, op)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(body)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[len(Magic):])
	crc.Write(body)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadFrame reads and integrity-checks one frame. Any deviation —
// wrong magic, oversized body, truncation, CRC mismatch — is an error;
// the caller treats it as a transport failure, not a protocol answer.
func ReadFrame(r io.Reader) (op byte, body []byte, err error) {
	return readFrame(r, maxFrameBody)
}

// readFrame is ReadFrame under the caller's bound on the body length.
func readFrame(r io.Reader, limit uint32) (op byte, body []byte, err error) {
	hdr := make([]byte, len(Magic)+5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("remote: short frame header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return 0, nil, fmt.Errorf("remote: bad frame magic %q", hdr[:len(Magic)])
	}
	op = hdr[len(Magic)]
	n := binary.LittleEndian.Uint32(hdr[len(Magic)+1:])
	if n > limit {
		return 0, nil, fmt.Errorf("remote: frame body %d bytes exceeds limit %d", n, limit)
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("remote: torn frame body: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("remote: torn frame checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[len(Magic):])
	crc.Write(body)
	if crc.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
		return 0, nil, fmt.Errorf("remote: frame checksum mismatch")
	}
	return op, body, nil
}

// encodeError builds an opError body.
func encodeError(code uint8, msg string) []byte {
	var w wbuf
	w.u8(code)
	w.str(msg)
	return w.b
}

// decodeError parses an opError body; a malformed one still yields a
// usable error.
func decodeError(body []byte) error {
	r := rbuf{b: body}
	code := r.u8()
	msg := r.str()
	if r.done() != nil || msg == "" {
		return &RemoteError{Code: ErrCodeInternal, Msg: "remote: malformed error frame"}
	}
	return &RemoteError{Code: code, Msg: msg}
}

// wbuf is a little-endian append-only body encoder.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}
func (w *wbuf) strs(v []string) {
	w.u32(uint32(len(v)))
	for _, s := range v {
		w.str(s)
	}
}

// rbuf is the matching decoder: it latches the first failure and lets
// the caller check once at the end, and every count is validated
// against the bytes actually present before allocating.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("remote: truncated frame body at offset %d", r.off)
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rbuf) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+8*n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *rbuf) strs() []string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+4*n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("remote: %d trailing bytes in frame body", len(r.b)-r.off)
	}
	return nil
}

// Geometry is one concept's scan geometry on the wire (the output of
// Concept.Point/Concept.Weights — floats travel as raw bits, so the
// receiving scan uses the training process's exact values).
type Geometry struct {
	Point   []float64
	Weights []float64
}

func (w *wbuf) geometry(g Geometry) {
	w.f64s(g.Point)
	w.f64s(g.Weights)
}

func (r *rbuf) geometry() Geometry {
	return Geometry{Point: r.f64s(), Weights: r.f64s()}
}

func (w *wbuf) results(rs []milret.Result) {
	w.u32(uint32(len(rs)))
	for _, res := range rs {
		w.str(res.ID)
		w.str(res.Label)
		w.f64(res.Distance)
	}
}

func (r *rbuf) results() []milret.Result {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+9*n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([]milret.Result, n)
	for i := range out {
		out[i] = milret.Result{ID: r.str(), Label: r.str(), Distance: r.f64()}
	}
	return out
}

// TopKRequest asks a partition for its k best matches. Seed carries the
// coordinator's tightest known cutoff at send time so the partition's
// scan starts pruning immediately; +Inf (or 0) seeds nothing.
type TopKRequest struct {
	K       int
	Recall  float64
	Seed    float64
	Concept Geometry
	Exclude []string
}

func (q TopKRequest) encode() []byte {
	var w wbuf
	w.u32(uint32(q.K))
	w.f64(q.Recall)
	w.f64(q.Seed)
	w.geometry(q.Concept)
	w.strs(q.Exclude)
	return w.b
}

func decodeTopKRequest(body []byte) (TopKRequest, error) {
	r := rbuf{b: body}
	q := TopKRequest{
		K:       int(r.u32()),
		Recall:  r.f64(),
		Seed:    r.f64(),
		Concept: r.geometry(),
		Exclude: r.strs(),
	}
	return q, r.done()
}

// TopKResponse carries a partition's top-k plus the bound its scan
// finished with — the k-th best distance when the partition produced a
// full k results, +Inf otherwise (a partition with fewer than k live
// candidates bounds nothing).
type TopKResponse struct {
	Cutoff  float64
	Results []milret.Result
}

func (p TopKResponse) encode() []byte {
	var w wbuf
	w.f64(p.Cutoff)
	w.results(p.Results)
	return w.b
}

func decodeTopKResponse(body []byte) (TopKResponse, error) {
	r := rbuf{b: body}
	p := TopKResponse{Cutoff: r.f64(), Results: r.results()}
	return p, r.done()
}

// MultiTopKRequest is the batched form: B concepts, one round trip, B
// single scans over one pinned snapshot of the shard. No live cutoff
// piggybacks (a cutoff belongs to one query; each scan of the batch seeds
// and tightens its own, exactly like the in-process MultiTopK).
type MultiTopKRequest struct {
	K        int
	Recall   float64
	Concepts []Geometry
	Exclude  []string
}

func (q MultiTopKRequest) encode() []byte {
	var w wbuf
	w.u32(uint32(q.K))
	w.f64(q.Recall)
	w.u32(uint32(len(q.Concepts)))
	for _, g := range q.Concepts {
		w.geometry(g)
	}
	w.strs(q.Exclude)
	return w.b
}

func decodeMultiTopKRequest(body []byte) (MultiTopKRequest, error) {
	r := rbuf{b: body}
	q := MultiTopKRequest{K: int(r.u32()), Recall: r.f64()}
	n := int(r.u32())
	if r.err == nil && n >= 0 && r.off+8*n <= len(r.b) {
		q.Concepts = make([]Geometry, n)
		for i := range q.Concepts {
			q.Concepts[i] = r.geometry()
		}
	} else {
		r.fail()
	}
	q.Exclude = r.strs()
	return q, r.done()
}

// MultiTopKResponse carries one ranking per requested concept, in
// order.
type MultiTopKResponse struct {
	Lists [][]milret.Result
}

func (p MultiTopKResponse) encode() []byte {
	var w wbuf
	w.u32(uint32(len(p.Lists)))
	for _, rs := range p.Lists {
		w.results(rs)
	}
	return w.b
}

func decodeMultiTopKResponse(body []byte) (MultiTopKResponse, error) {
	r := rbuf{b: body}
	n := int(r.u32())
	var p MultiTopKResponse
	if r.err == nil && n >= 0 && r.off+4*n <= len(r.b) {
		p.Lists = make([][]milret.Result, n)
		for i := range p.Lists {
			p.Lists[i] = r.results()
		}
	} else {
		r.fail()
	}
	return p, r.done()
}

// FetchRequest asks the owning partition for example bags by ID.
type FetchRequest struct {
	IDs []string
}

func (q FetchRequest) encode() []byte {
	var w wbuf
	w.strs(q.IDs)
	return w.b
}

func decodeFetchRequest(body []byte) (FetchRequest, error) {
	r := rbuf{b: body}
	q := FetchRequest{IDs: r.strs()}
	return q, r.done()
}

// FetchedBag is one fetched example: Found is false when the partition
// does not hold the ID live (the coordinator reports it like a local
// unknown-example error).
type FetchedBag struct {
	ID        string
	Found     bool
	Instances [][]float64
}

// FetchResponse answers a FetchRequest, parallel to its IDs.
type FetchResponse struct {
	Bags []FetchedBag
}

func (p FetchResponse) encode() []byte {
	var w wbuf
	w.u32(uint32(len(p.Bags)))
	for _, b := range p.Bags {
		w.str(b.ID)
		if !b.Found {
			w.u8(0)
			continue
		}
		w.u8(1)
		w.u32(uint32(len(b.Instances)))
		for _, row := range b.Instances {
			w.f64s(row)
		}
	}
	return w.b
}

func decodeFetchResponse(body []byte) (FetchResponse, error) {
	r := rbuf{b: body}
	n := int(r.u32())
	var p FetchResponse
	if r.err != nil || n < 0 || r.off+5*n > len(r.b) {
		r.fail()
		return p, r.done()
	}
	p.Bags = make([]FetchedBag, n)
	for i := range p.Bags {
		p.Bags[i].ID = r.str()
		if r.u8() == 0 {
			continue
		}
		p.Bags[i].Found = true
		ni := int(r.u32())
		if r.err != nil || ni < 0 || r.off+4*ni > len(r.b) {
			r.fail()
			return p, r.done()
		}
		p.Bags[i].Instances = make([][]float64, ni)
		for j := range p.Bags[i].Instances {
			p.Bags[i].Instances[j] = r.f64s()
		}
	}
	return p, r.done()
}

// Mutation kinds for MutateRequest.
const (
	// MutDelete tombstones the image.
	MutDelete uint8 = 1
	// MutLabel replaces the image's label, keeping its pixels/bag.
	MutLabel uint8 = 2
)

// MutateRequest applies one routed mutation to the owning partition.
// The shard server flushes before acknowledging, so an acked mutation
// is durable there — the same contract as the local HTTP surface.
type MutateRequest struct {
	Kind  uint8
	ID    string
	Label string
}

func (q MutateRequest) encode() []byte {
	var w wbuf
	w.u8(q.Kind)
	w.str(q.ID)
	w.str(q.Label)
	return w.b
}

func decodeMutateRequest(body []byte) (MutateRequest, error) {
	r := rbuf{b: body}
	q := MutateRequest{Kind: r.u8(), ID: r.str(), Label: r.str()}
	return q, r.done()
}

// MutateResponse acknowledges a mutation with the partition's new live
// image count (keeps the coordinator's Len() current without a probe).
type MutateResponse struct {
	Images uint64
}

func (p MutateResponse) encode() []byte {
	var w wbuf
	w.u64(p.Images)
	return w.b
}

func decodeMutateResponse(body []byte) (MutateResponse, error) {
	r := rbuf{b: body}
	p := MutateResponse{Images: r.u64()}
	return p, r.done()
}

// PingResponse answers a health probe.
type PingResponse struct {
	Images uint64
	// Verify is the partition's milret.VerifyStatus.
	Verify uint8
}

func (p PingResponse) encode() []byte {
	var w wbuf
	w.u64(p.Images)
	w.u8(p.Verify)
	return w.b
}

func decodePingResponse(body []byte) (PingResponse, error) {
	r := rbuf{b: body}
	p := PingResponse{Images: r.u64(), Verify: r.u8()}
	return p, r.done()
}

// ListEntry is one live image in a ListResponse.
type ListEntry struct {
	ID    string
	Label string
}

// ListResponse enumerates a partition's live images in its insertion
// order.
type ListResponse struct {
	Entries []ListEntry
}

func (p ListResponse) encode() []byte {
	var w wbuf
	w.u32(uint32(len(p.Entries)))
	for _, e := range p.Entries {
		w.str(e.ID)
		w.str(e.Label)
	}
	return w.b
}

func decodeListResponse(body []byte) (ListResponse, error) {
	r := rbuf{b: body}
	n := int(r.u32())
	var p ListResponse
	if r.err != nil || n < 0 || r.off+8*n > len(r.b) {
		r.fail()
		return p, r.done()
	}
	p.Entries = make([]ListEntry, n)
	for i := range p.Entries {
		p.Entries[i] = ListEntry{ID: r.str(), Label: r.str()}
	}
	return p, r.done()
}

// GetRequest asks the owning partition for one image's metadata.
type GetRequest struct {
	ID string
}

func (q GetRequest) encode() []byte {
	var w wbuf
	w.str(q.ID)
	return w.b
}

func decodeGetRequest(body []byte) (GetRequest, error) {
	r := rbuf{b: body}
	q := GetRequest{ID: r.str()}
	return q, r.done()
}

// GetResponse answers a GetRequest.
type GetResponse struct {
	Found bool
	Label string
}

func (p GetResponse) encode() []byte {
	var w wbuf
	if p.Found {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.str(p.Label)
	return w.b
}

func decodeGetResponse(body []byte) (GetResponse, error) {
	r := rbuf{b: body}
	p := GetResponse{Found: r.u8() == 1, Label: r.str()}
	return p, r.done()
}

// encodeStats / decodeStats carry the full stats tree as JSON inside
// the binary frame: the structure is deep, evolving, and read by
// humans via /v1/stats anyway, so a fixed binary layout would buy
// nothing but drift.
func encodeStats(st milret.Stats) ([]byte, error) { return json.Marshal(st) }

func decodeStats(body []byte) (milret.Stats, error) {
	var st milret.Stats
	err := json.Unmarshal(body, &st)
	return st, err
}
