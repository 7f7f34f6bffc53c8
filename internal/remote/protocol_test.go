package remote

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"milret"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB}, 4096)}
	for _, body := range bodies {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, opTopK, body); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(body), err)
		}
		op, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%d bytes): %v", len(body), err)
		}
		if op != opTopK {
			t.Errorf("op = %d, want %d", op, opTopK)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("body mismatch: %d bytes read, %d written", len(got), len(body))
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var ref bytes.Buffer
	if err := WriteFrame(&ref, opFetch, []byte("hello, shard")); err != nil {
		t.Fatal(err)
	}
	frame := ref.Bytes()

	// Every single-bit flip anywhere in the frame must be detected: the
	// magic check catches the prefix, the CRC everything after it.
	for i := 0; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			if _, _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", i, bit)
			}
		}
	}

	// A well-formed version 1 frame is refused: its topk body carried a
	// recall where version 2 reads the cutoff seed.
	v1 := append([]byte("MILRETR1"), frame[len(Magic):]...)
	if _, _, err := ReadFrame(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "bad frame magic") {
		t.Fatalf("MILRETR1 frame: err %v, want bad frame magic", err)
	}

	// Every truncation must surface as an error, not a short body.
	for n := 0; n < len(frame); n++ {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(frame))
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A frame whose length field claims more than maxFrameBody must be
	// rejected before any allocation happens.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(opPing)
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // ~4GiB body
	if _, _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length accepted: %v", err)
	}
}

func TestTopKRequestRoundTrip(t *testing.T) {
	q := TopKRequest{
		K:    7,
		Seed: 1.25e-3,
		Concept: Geometry{
			Point:   []float64{0.1, math.Pi, -3, math.Inf(1)},
			Weights: []float64{1, 0.5, 0.25, 0},
		},
		Exclude: []string{"a", "b-with-longer-id", ""},
	}
	got, err := decodeTopKRequest(q.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Errorf("round trip: got %+v, want %+v", got, q)
	}
}

func TestTopKResponseRoundTrip(t *testing.T) {
	p := TopKResponse{
		Cutoff: 0.125,
		Results: []milret.Result{
			{ID: "x", Label: "cat", Distance: 0.0625},
			{ID: "y", Label: "", Distance: 0.125},
		},
	}
	got, err := decodeTopKResponse(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip: got %+v, want %+v", got, p)
	}
	// The +Inf cutoff (no bound) must survive as raw bits.
	inf := TopKResponse{Cutoff: math.Inf(1)}
	got, err = decodeTopKResponse(inf.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Cutoff, 1) {
		t.Errorf("+Inf cutoff round-tripped to %v", got.Cutoff)
	}
}

func TestFetchResponseRoundTrip(t *testing.T) {
	p := FetchResponse{Bags: []FetchedBag{
		{ID: "hit", Found: true, Instances: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		{ID: "miss", Found: false},
		{ID: "empty-rows", Found: true, Instances: [][]float64{}},
	}}
	got, err := decodeFetchResponse(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bags) != 3 || !got.Bags[0].Found || got.Bags[1].Found {
		t.Fatalf("round trip: got %+v", got)
	}
	if !reflect.DeepEqual(got.Bags[0].Instances, p.Bags[0].Instances) {
		t.Errorf("instances: got %v, want %v", got.Bags[0].Instances, p.Bags[0].Instances)
	}
}

func TestMultiTopKRoundTrip(t *testing.T) {
	q := MultiTopKRequest{
		K: 3,
		Concepts: []Geometry{
			{Point: []float64{1}, Weights: []float64{2}},
			{Point: []float64{3, 4}, Weights: []float64{5, 6}},
		},
		Exclude: []string{"z"},
	}
	gotQ, err := decodeMultiTopKRequest(q.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ, q) {
		t.Errorf("request round trip: got %+v, want %+v", gotQ, q)
	}
	p := MultiTopKResponse{Lists: [][]milret.Result{
		{{ID: "a", Distance: 1}},
		nil,
	}}
	gotP, err := decodeMultiTopKResponse(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotP.Lists) != 2 || len(gotP.Lists[0]) != 1 || gotP.Lists[0][0].ID != "a" {
		t.Errorf("response round trip: got %+v", gotP)
	}
}

func TestSmallBodyRoundTrips(t *testing.T) {
	if got, err := decodeMutateRequest(MutateRequest{Kind: MutLabel, ID: "i", Label: "l"}.encode()); err != nil || got.Kind != MutLabel || got.ID != "i" || got.Label != "l" {
		t.Errorf("mutate request: %+v, %v", got, err)
	}
	if got, err := decodeMutateResponse(MutateResponse{Images: 42}.encode()); err != nil || got.Images != 42 {
		t.Errorf("mutate response: %+v, %v", got, err)
	}
	if got, err := decodePingResponse(PingResponse{Images: 7, Verify: 2}.encode()); err != nil || got.Images != 7 || got.Verify != 2 {
		t.Errorf("ping response: %+v, %v", got, err)
	}
	if got, err := decodeGetResponse(GetResponse{Found: true, Label: "x"}.encode()); err != nil || !got.Found || got.Label != "x" {
		t.Errorf("get response: %+v, %v", got, err)
	}
	if got, err := decodeListResponse(ListResponse{Entries: []ListEntry{{ID: "a", Label: "b"}}}.encode()); err != nil || len(got.Entries) != 1 || got.Entries[0].Label != "b" {
		t.Errorf("list response: %+v, %v", got, err)
	}
}

func TestDecodeRejectsTruncatedBodies(t *testing.T) {
	// Chopping any suffix off an encoded body must error, never yield a
	// silently short struct.
	full := TopKRequest{
		K:       3,
		Concept: Geometry{Point: []float64{1, 2}, Weights: []float64{3, 4}},
		Exclude: []string{"e1", "e2"},
	}.encode()
	for n := 0; n < len(full); n++ {
		if _, err := decodeTopKRequest(full[:n]); err == nil {
			t.Fatalf("truncated body (%d of %d bytes) decoded without error", n, len(full))
		}
	}
	// Trailing garbage must also be rejected.
	if _, err := decodeTopKRequest(append(append([]byte(nil), full...), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	err := decodeError(encodeError(ErrCodeNotFound, "no such image"))
	re, ok := err.(*RemoteError)
	if !ok || re.Code != ErrCodeNotFound || re.Msg != "no such image" {
		t.Fatalf("round trip: %#v", err)
	}
	// A malformed error frame still yields a usable error.
	if e := decodeError([]byte{1}); e == nil || e.Error() == "" {
		t.Errorf("malformed error frame: %v", e)
	}
}
