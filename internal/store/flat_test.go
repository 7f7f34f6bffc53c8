package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"milret/internal/mat"
)

func writeFlatTemp(t *testing.T, dim int, recs []Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.milretx")
	if err := WriteFlatFile(path, dim, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// readVerified loads path with every integrity check the format has: the
// structural and meta checks of the open plus the data checksum.
func readVerified(path string) ([]Record, error) {
	fdb, err := OpenFlatFile(path)
	if err != nil {
		return nil, err
	}
	if err := fdb.VerifyData(); err != nil {
		fdb.Close()
		return nil, err
	}
	return fdb.Records, nil
}

func recordsBitEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Label != want[i].Label {
			t.Fatalf("record %d metadata mismatch: %+v vs %+v", i, got[i], want[i])
		}
		if len(got[i].Bag.Instances) != len(want[i].Bag.Instances) {
			t.Fatalf("record %d instance count mismatch", i)
		}
		for j := range want[i].Bag.Instances {
			for k := range want[i].Bag.Instances[j] {
				a := math.Float64bits(want[i].Bag.Instances[j][k])
				b := math.Float64bits(got[i].Bag.Instances[j][k])
				if a != b {
					t.Fatalf("record %d inst %d dim %d not bit-exact", i, j, k)
				}
			}
		}
		if len(got[i].Bag.Names) != len(want[i].Bag.Names) {
			t.Fatalf("record %d names mismatch: %v vs %v", i, got[i].Bag.Names, want[i].Bag.Names)
		}
		for j := range want[i].Bag.Names {
			if got[i].Bag.Names[j] != want[i].Bag.Names[j] {
				t.Fatalf("record %d name %d mismatch", i, j)
			}
		}
	}
}

func TestFlatRoundTripExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	recs := []Record{
		randRecord(r, "img-0", "waterfall", 5, 3),
		randRecord(r, "img-1", "field", 5, 1),
		randRecord(r, "img-2", "", 5, 7),
	}
	recs[0].Bag.Instances[0][0] = 0
	recs[0].Bag.Instances[0][1] = math.Copysign(0, -1)
	recs[0].Bag.Instances[0][2] = math.SmallestNonzeroFloat64
	recs[0].Bag.Instances[0][3] = math.MaxFloat64
	recs[1].Bag.Names = []string{"a-whole"}

	path := writeFlatTemp(t, 5, recs)
	got, err := readVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	recordsBitEqual(t, got, recs)
}

func TestFlatEmptyStore(t *testing.T) {
	path := writeFlatTemp(t, 4, nil)
	got, err := readVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty flat store yielded %d records", len(got))
	}
}

func TestFlatSharedBacking(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	recs := []Record{randRecord(r, "a", "l", 4, 3), randRecord(r, "b", "l", 4, 2)}
	path := writeFlatTemp(t, 4, recs)
	got, err := readVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	// All instances must be views into one contiguous flat block: each
	// instance starts exactly dim floats after the previous one, across
	// record boundaries too.
	prev := got[0].Bag.Instances[0]
	for _, rec := range got {
		for _, inst := range rec.Bag.Instances {
			if &inst[0] == &prev[0] {
				continue // the very first instance
			}
			gap := uintptr(unsafe.Pointer(&inst[0])) - uintptr(unsafe.Pointer(&prev[0]))
			if gap != uintptr(len(prev))*unsafe.Sizeof(float64(0)) {
				t.Fatal("instances are not adjacent views into a shared flat block")
			}
			prev = inst
		}
	}
}

func TestFlatWriterRejects(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	if err := WriteFlatFile(path, 0, nil); err == nil {
		t.Fatal("zero dim accepted")
	}
	r := rand.New(rand.NewSource(3))
	if err := WriteFlatFile(path, 3, []Record{randRecord(r, "a", "l", 2, 1)}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := WriteFlatFile(path, 3, []Record{{ID: "x"}}); err == nil {
		t.Fatal("nil bag accepted")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, ".milret-store-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// Every single-byte flip after the magic must surface an error, not a
// silently wrong database.
func TestFlatCorruptionDetected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	recs := []Record{randRecord(r, "img", "lbl", 4, 3)}
	recs[0].Bag.Names = []string{"n1", "n2", "n3"}
	path := writeFlatTemp(t, 4, recs)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "corrupt")
	for pos := len(FlatMagic); pos < len(good); pos++ {
		data := append([]byte{}, good...)
		data[pos] ^= 0xFF
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readVerified(tmp); err == nil {
			t.Errorf("flip at %d: corruption not detected", pos)
		}
	}
}

func TestFlatTruncationDetected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	path := writeFlatTemp(t, 4, []Record{randRecord(r, "img", "lbl", 4, 3)})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "trunc")
	for cut := len(FlatMagic); cut < len(good); cut += 5 {
		if err := os.WriteFile(tmp, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readVerified(tmp); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestFlatDataCorruptionWrapsErrCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	path := writeFlatTemp(t, 3, []Record{randRecord(r, "a", "l", 3, 2)})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF // inside the float block
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readVerified(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestOpenFlatFileZeroCopy: the fast open must adopt the file's data block
// in place (on little-endian unix this means bit-exact records with zero
// float decoding), defer the data checksum to VerifyData, and release its
// mapping on Close.
func TestOpenFlatFileZeroCopy(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	recs := []Record{randRecord(r, "a", "x", 6, 3), randRecord(r, "b", "y", 6, 2)}
	path := writeFlatTemp(t, 6, recs)

	fdb, err := OpenFlatFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	if fdb.Dim != 6 || len(fdb.Records) != 2 || len(fdb.Data) != 5*6 {
		t.Fatalf("open gave dim %d, %d records, %d floats", fdb.Dim, len(fdb.Records), len(fdb.Data))
	}
	if hostLittleEndian() && !fdb.ZeroCopy() {
		t.Fatal("little-endian open of a v2 file did not adopt the block zero-copy")
	}
	isMapped := func() bool {
		fdb.mu.Lock()
		defer fdb.mu.Unlock()
		return fdb.mapped != nil
	}
	if mmapSupported && !isMapped() {
		t.Fatal("mmap-capable platform did not map the file")
	}
	recordsBitEqual(t, fdb.Records, recs)
	// Instances must be views into Data, not copies.
	if &fdb.Records[0].Bag.Instances[0][0] != &fdb.Data[0] {
		t.Fatal("first instance does not alias the adopted block")
	}
	if err := fdb.VerifyData(); err != nil {
		t.Fatal(err)
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	if isMapped() {
		t.Fatal("still mapped after Close")
	}
}

// TestOpenFlatFileDeferredCorruption: a flipped float must slip past the
// fast open (that is the documented trade) and be caught by VerifyData.
func TestOpenFlatFileDeferredCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	path := writeFlatTemp(t, 4, []Record{randRecord(r, "a", "l", 4, 3)})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF // inside the float block
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fdb, err := OpenFlatFile(path)
	if err != nil {
		t.Fatalf("fast open rejected data-block corruption eagerly: %v", err)
	}
	defer fdb.Close()
	if fdb.ZeroCopy() {
		if err := fdb.VerifyData(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("VerifyData = %v, want ErrCorrupt", err)
		}
	}
}

// TestFlatV1Refused: version 1 was the unpadded layout; nothing writes it and
// nothing reads it, so its header is refused by version, like any other
// version this build does not know.
func TestFlatV1Refused(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	path := writeFlatTemp(t, 3, []Record{randRecord(r, "v1", "legacy", 3, 2)})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{0, 1, FlatVersion + 1} {
		binary.LittleEndian.PutUint32(data[len(FlatMagic):], version)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFlatFile(path)
		if err == nil || !strings.Contains(err.Error(), "unsupported flat version") {
			t.Fatalf("version %d: OpenFlatFile = %v, want \"unsupported flat version\"", version, err)
		}
	}
}

// The open benchmark backs the README's O(bags) open claim: OpenFlatFile
// adopts the block without touching a float.
func benchFlatFile(b *testing.B, nRecs, inst, dim int) string {
	b.Helper()
	r := rand.New(rand.NewSource(12))
	recs := make([]Record, nRecs)
	for i := range recs {
		recs[i] = randRecord(r, fmt.Sprintf("img-%05d", i), "l", dim, inst)
	}
	path := filepath.Join(b.TempDir(), "bench.milretx")
	if err := WriteFlatFile(path, dim, recs); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkOpenFlatFile2k(b *testing.B) {
	path := benchFlatFile(b, 2000, 40, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdb, err := OpenFlatFile(path)
		if err != nil {
			b.Fatal(err)
		}
		fdb.Close()
	}
}

// Property: random record sets survive a flat round trip bit-exactly.
func TestQuickFlatRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(8)
		n := r.Intn(6)
		var recs []Record
		for i := 0; i < n; i++ {
			rec := randRecord(r, "id", "lb", dim, 1+r.Intn(4))
			if r.Intn(2) == 0 {
				rec.Bag.Names = make([]string, len(rec.Bag.Instances))
				for j := range rec.Bag.Names {
					rec.Bag.Names[j] = "region"
				}
			}
			recs = append(recs, rec)
		}
		path := filepath.Join(t.TempDir(), "q")
		if err := WriteFlatFile(path, dim, recs); err != nil {
			return false
		}
		got, err := readVerified(path)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i].ID != recs[i].ID || got[i].Label != recs[i].Label {
				return false
			}
			for j := range recs[i].Bag.Instances {
				if !mat.Equal(got[i].Bag.Instances[j], recs[i].Bag.Instances[j], 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDataAfterClose(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	path := writeFlatTemp(t, 3, []Record{randRecord(r, "a", "l", 3, 2)})
	fdb, err := OpenFlatFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wasVerified := fdb.verified
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fdb.VerifyData(); !wasVerified && err == nil {
		t.Fatal("VerifyData after Close succeeded on an unverified store")
	}
}
