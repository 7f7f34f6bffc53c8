package store

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"milret/internal/mat"
	"milret/internal/mil"
)

func randRecord(r *rand.Rand, id, label string, dim, nInst int) Record {
	b := &mil.Bag{ID: id}
	for i := 0; i < nInst; i++ {
		v := mat.NewVector(dim)
		for k := range v {
			v[k] = r.NormFloat64()
		}
		b.Instances = append(b.Instances, v)
	}
	return Record{ID: id, Label: label, Bag: b}
}

// roundTrip pushes records through the record payload codec — the layout
// the log's add/update frames carry.
func roundTrip(t *testing.T, recs []Record, dim int) []Record {
	t.Helper()
	out := make([]Record, len(recs))
	for i, rec := range recs {
		payload, err := encodeRecordPayload(rec, dim)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = decodeRecordPayload(payload, dim); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// writeTwoRecordLog writes a log of two add records and returns its bytes
// and the byte offset at which the second (final) record starts. Damage
// before that offset is mid-log damage; damage after it can also read as a
// torn tail.
func writeTwoRecordLog(t *testing.T, r *rand.Rand, dim int) (raw []byte, ops []WALRecord, lastAt int) {
	t.Helper()
	ops = []WALRecord{
		{Op: WALAdd, Rec: randRecord(r, "img", "lbl", dim, 3)},
		{Op: WALAdd, Rec: randRecord(r, "img2", "lbl", dim, 1)},
	}
	path := filepath.Join(t.TempDir(), "two.wal")
	writeWAL(t, path, dim, ops)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last, err := encodeRecordPayload(ops[1].Rec, dim)
	if err != nil {
		t.Fatal(err)
	}
	return raw, ops, len(raw) - (4 + 1 + len(last) + 4)
}

func readLogBytes(t *testing.T, data []byte) ([]WALRecord, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "damaged.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, recs, err := ReadWAL(path)
	return recs, err
}

func TestRoundTripExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	recs := []Record{
		randRecord(r, "img-0", "waterfall", 5, 3),
		randRecord(r, "img-1", "field", 5, 1),
		randRecord(r, "img-2", "", 5, 7),
	}
	// Include special float values: they must survive bit-exactly.
	recs[0].Bag.Instances[0][0] = 0
	recs[0].Bag.Instances[0][1] = math.Copysign(0, -1)
	recs[0].Bag.Instances[0][2] = math.SmallestNonzeroFloat64
	recs[0].Bag.Instances[0][3] = math.MaxFloat64

	got := roundTrip(t, recs, 5)
	for i, rec := range recs {
		if got[i].ID != rec.ID || got[i].Label != rec.Label {
			t.Fatalf("record %d metadata mismatch: %+v", i, got[i])
		}
		if len(got[i].Bag.Instances) != len(rec.Bag.Instances) {
			t.Fatalf("record %d instance count mismatch", i)
		}
		for j := range rec.Bag.Instances {
			for k := range rec.Bag.Instances[j] {
				a := math.Float64bits(rec.Bag.Instances[j][k])
				b := math.Float64bits(got[i].Bag.Instances[j][k])
				if a != b {
					t.Fatalf("record %d inst %d dim %d not bit-exact", i, j, k)
				}
			}
		}
	}
}

// A store created with no records reopens as an empty shard that still
// knows its dimensionality: the snapshot header carries it.
func TestEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.milret")
	if err := Create(path, 4, [][]Record{nil}); err != nil {
		t.Fatal(err)
	}
	j, shards, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(shards) != 1 || len(shards[0].Flat.Records) != 0 || len(shards[0].Log) != 0 {
		t.Fatalf("empty store yielded %+v", shards)
	}
	if j.Dim() != 4 {
		t.Fatalf("empty store dim %d, want 4", j.Dim())
	}
}

func TestWriterRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	if _, err := CreateWAL(path, 0, WALFingerprint{}); err == nil {
		t.Fatalf("zero dim accepted")
	}
	w, err := CreateWAL(path, 3, WALFingerprint{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(WALRecord{Op: WALAdd, Rec: Record{ID: "x"}}); err == nil {
		t.Fatalf("nil bag accepted")
	}
	bad := Record{ID: "x", Bag: &mil.Bag{ID: "x", Instances: []mat.Vector{{1, 2}}}}
	if err := w.Append(WALRecord{Op: WALAdd, Rec: bad}); err == nil {
		t.Fatalf("dimension mismatch accepted")
	}
	empty := Record{ID: "x", Bag: &mil.Bag{ID: "x"}}
	if err := w.Append(WALRecord{Op: WALUpdate, Rec: empty}); err == nil {
		t.Fatalf("empty bag accepted")
	}
	if w.Count() != 0 {
		t.Fatalf("rejected records were counted: %d", w.Count())
	}
}

// Whatever sits at the store path, a header Open cannot vouch for is an
// error, the record-stream magic of the first store generation included.
func TestReaderHeaderFailures(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	good, err := os.ReadFile(writeFlatTemp(t, 3, []Record{randRecord(r, "a", "l", 3, 2)}))
	if err != nil {
		t.Fatal(err)
	}
	patched := func(at int, b ...byte) []byte {
		out := append([]byte{}, good...)
		copy(out[at:], b)
		return out
	}
	cases := map[string][]byte{
		"empty":         {},
		"short magic":   good[:4],
		"bad magic":     patched(0, []byte("XXXXXXXX")...),
		"retired magic": patched(0, []byte(retiredStreamMagic)...),
		"bad version":   patched(len(FlatMagic), 99),
		"zero dim":      patched(len(FlatMagic)+4, 0, 0, 0, 0),
	}
	for name, data := range cases {
		path := filepath.Join(t.TempDir(), "store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := Open(path)
		if err == nil {
			j.Close()
			t.Errorf("%s: header accepted", name)
		}
	}
}

// Flip one byte in every position after the log header. No flip may hand
// back a record that differs from what was written: damage to the first
// record is mid-log damage and must fail the read; damage to the final
// record may also read as a torn tail, which drops it.
func TestCorruptionDetected(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	good, ops, lastAt := writeTwoRecordLog(t, r, 4)
	for pos := walHeaderLen; pos < len(good); pos++ {
		data := append([]byte{}, good...)
		data[pos] ^= 0xFF
		recs, err := readLogBytes(t, data)
		if err != nil {
			continue
		}
		if pos >= walHeaderLen+4 && pos < lastAt {
			// Inside the first record's frame or CRC. (A damaged length
			// prefix may instead claim bytes past the end of the file, which
			// reads as a torn tail.)
			t.Errorf("flip at %d: mid-log corruption not detected", pos)
		}
		if len(recs) > len(ops) {
			t.Fatalf("flip at %d: read %d records of %d", pos, len(recs), len(ops))
		}
		sameOps(t, recs, ops[:len(recs)])
	}
}

func TestTruncationDetected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	good, err := encodeRecordPayload(randRecord(r, "img", "lbl", 4, 3), 4)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := decodeRecordPayload(good[:cut], 4); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestCorruptErrorsWrapErrCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data, _, lastAt := writeTwoRecordLog(t, r, 2)
	data[lastAt-1] ^= 0xFF // corrupt the first record's CRC itself
	if _, err := readLogBytes(t, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	path := filepath.Join(dir, "db.milret")
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, randRecord(r, "img", "cat", 6, 4))
	}
	if err := Create(path, 6, [][]Record{recs}); err != nil {
		t.Fatal(err)
	}
	j, shards, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recordsBitEqual(t, shards[0].Flat.Records, recs)
	// No temp files may linger.
	matches, _ := filepath.Glob(filepath.Join(dir, ".milret-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestWriterCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	w, err := CreateWAL(filepath.Join(t.TempDir(), "c.wal"), 2, WALFingerprint{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := w.Append(WALRecord{Op: WALAdd, Rec: randRecord(r, "x", "", 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 || w.AppendSeq() != 3 {
		t.Fatalf("Count = %d, AppendSeq = %d", w.Count(), w.AppendSeq())
	}
}

// Property: any finite random record survives the payload codec unchanged.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(8)
		for i := 0; i < 1+r.Intn(5); i++ {
			rec := randRecord(r, "id", "lb", dim, 1+r.Intn(4))
			payload, err := encodeRecordPayload(rec, dim)
			if err != nil {
				return false
			}
			got, err := decodeRecordPayload(payload, dim)
			if err != nil || got.ID != rec.ID || got.Label != rec.Label ||
				len(got.Bag.Instances) != len(rec.Bag.Instances) {
				return false
			}
			for j := range rec.Bag.Instances {
				if !mat.Equal(got.Bag.Instances[j], rec.Bag.Instances[j], 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripInstanceNames(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	rec := randRecord(r, "img", "cat", 3, 2)
	rec.Bag.Names = []string{"a-whole", "c-quad-tl-lr"}
	got := roundTrip(t, []Record{rec}, 3)[0]
	if len(got.Bag.Names) != 2 || got.Bag.Names[0] != "a-whole" || got.Bag.Names[1] != "c-quad-tl-lr" {
		t.Fatalf("names lost in round trip: %v", got.Bag.Names)
	}
}

func TestRoundTripNoNamesStaysNil(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	got := roundTrip(t, []Record{randRecord(r, "img", "cat", 3, 2)}, 3)[0]
	if got.Bag.Names != nil {
		t.Fatalf("nameless bag gained names: %v", got.Bag.Names)
	}
}
