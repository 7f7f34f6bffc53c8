package remote

import (
	"bytes"
	"strings"
	"testing"

	"milret"
	"milret/internal/synth"
)

// reencode decodes body as op's request type and, when it parses, returns
// the bytes that request encodes back to. Ops without a request body
// (ping, stats, list) and unknown ops report false.
func reencode(op byte, body []byte) ([]byte, bool) {
	var (
		enc []byte
		err error
	)
	switch op {
	case opTopK:
		var q TopKRequest
		q, err = decodeTopKRequest(body)
		enc = q.encode()
	case opMultiTopK:
		var q MultiTopKRequest
		q, err = decodeMultiTopKRequest(body)
		enc = q.encode()
	case opFetch:
		var q FetchRequest
		q, err = decodeFetchRequest(body)
		enc = q.encode()
	case opMutate:
		var q MutateRequest
		q, err = decodeMutateRequest(body)
		enc = q.encode()
	case opGet:
		var q GetRequest
		q, err = decodeGetRequest(body)
		enc = q.encode()
	default:
		return nil, false
	}
	return enc, err == nil
}

// retiredOpRank was the exhaustive-ranking op; a shard must refuse it like
// any number it never assigned, whatever the body.
const retiredOpRank byte = 5

// FuzzShardDispatch feeds the shard's RPC edge arbitrary (op, body) pairs
// — what is left of a request once its frame checked out. Whatever
// arrives, dispatch must not panic and must answer the echoed op or an
// error verdict; and a request body that decodes must re-encode to the
// very bytes it came from, so no two wire forms mean the same request.
func FuzzShardDispatch(f *testing.F) {
	db, err := milret.NewDatabase(fastOpts)
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	var ids []string
	for _, it := range synth.ObjectsN(3, 2) {
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			f.Fatal(err)
		}
		ids = append(ids, it.ID)
	}
	s := NewShardServer(db)

	dim := db.Stats().Dim
	geo := Geometry{Point: make([]float64, dim), Weights: make([]float64, dim)}
	for i := range geo.Weights {
		geo.Point[i], geo.Weights[i] = float64(i)/float64(dim), 1
	}
	// What a rank request looked like while op 5 carried one.
	var rank wbuf
	rank.geometry(geo)
	rank.strs(ids[:1])
	for _, seed := range []struct {
		op   byte
		body []byte
	}{
		{opPing, nil},
		{opStats, nil},
		{opTopK, TopKRequest{K: 3, Seed: 0.5, Concept: geo, Exclude: ids[:1]}.encode()},
		{opMultiTopK, MultiTopKRequest{K: 2, Concepts: []Geometry{geo, geo}, Exclude: ids[:2]}.encode()},
		{retiredOpRank, rank.b},
		{opFetch, FetchRequest{IDs: []string{ids[0], "no-such-image"}}.encode()},
		{opMutate, MutateRequest{Kind: MutLabel, ID: ids[1], Label: "relabelled"}.encode()},
		{opList, nil},
		{opGet, GetRequest{ID: ids[2]}.encode()},
		{opError, encodeError(ErrCodeInternal, "not a request")},
		{200, []byte("unknown op")},
	} {
		f.Add(seed.op, seed.body)
		for _, cut := range []int{len(seed.body) - 1, len(seed.body) / 2, 1} {
			if cut >= 0 && cut < len(seed.body) {
				f.Add(seed.op, seed.body[:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		rop, rbody := s.dispatch(op, body)
		switch rop {
		case opError:
			if re, ok := decodeError(rbody).(*RemoteError); !ok || re.Msg == "" ||
				re.Code < ErrCodeInternal || re.Code > ErrCodeBadRequest {
				t.Fatalf("op %d: malformed error verdict %+v", op, re)
			}
		case op:
		default:
			t.Fatalf("op %d answered with op %d", op, rop)
		}
		if op == retiredOpRank {
			re, _ := decodeError(rbody).(*RemoteError)
			if rop != opError || re.Code != ErrCodeBadRequest || !strings.Contains(re.Msg, "unknown op") {
				t.Fatalf("op %d answered op %d %+v, want a bad-request \"unknown op\" verdict", op, rop, re)
			}
		}
		if enc, ok := reencode(op, body); ok && !bytes.Equal(enc, body) {
			t.Fatalf("op %d: body decodes but re-encodes differently\n in: %x\nout: %x", op, body, enc)
		}
	})
}
