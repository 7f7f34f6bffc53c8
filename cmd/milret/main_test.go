package main

import (
	"os"
	"path/filepath"
	"testing"

	"milret"
	"milret/internal/store"
)

func TestSplitIDs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
		{",,", nil},
	}
	for _, tc := range cases {
		got := splitIDs(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitIDs(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitIDs(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, good := range []string{"original", "identical", "constrained"} {
		if m, err := milret.ParseWeightMode(good); err != nil || m.String() != good {
			t.Errorf("-mode %q parsed to %v, %v", good, m, err)
		}
	}
	for _, bad := range []string{"bogus", ""} {
		if _, err := milret.ParseWeightMode(bad); err == nil {
			t.Errorf("-mode %q accepted", bad)
		}
	}
}

func TestReadLabels(t *testing.T) {
	dir := t.TempDir()
	content := "id,label\nimg-1,cat\nimg-2,dog\n\nmalformed-line\n"
	if err := os.WriteFile(filepath.Join(dir, "labels.csv"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	labels, err := readLabels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if labels["img-1"] != "cat" || labels["img-2"] != "dog" {
		t.Fatalf("labels = %v", labels)
	}
	if _, ok := labels["malformed-line"]; ok {
		t.Fatalf("malformed line should be skipped")
	}
}

func TestReadLabelsMissingFileIsEmpty(t *testing.T) {
	labels, err := readLabels(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 {
		t.Fatalf("missing labels.csv should yield empty map, got %v", labels)
	}
}

func TestGenBuildQueryPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI pipeline test")
	}
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	dbPath := filepath.Join(dir, "db.milret")
	if err := cmdGen([]string{"-kind", "objects", "-dir", corpus, "-per-category", "2", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	pngs, _ := filepath.Glob(filepath.Join(corpus, "*.png"))
	if len(pngs) != 38 {
		t.Fatalf("gen wrote %d PNGs, want 38", len(pngs))
	}
	if err := cmdBuild([]string{"-dir", corpus, "-db", dbPath, "-regions", "9", "-resolution", "6"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dbPath); err != nil {
		t.Fatalf("build produced no database: %v", err)
	}
	if err := cmdQuery([]string{"-db", dbPath, "-pos", "object-car-00", "-neg", "object-lamp-00", "-k", "3", "-mode", "identical"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-db", dbPath, "-target", "car", "-rounds", "1", "-mode", "identical"}); err != nil {
		t.Fatal(err)
	}
}

// Building with -shards writes a MILRETS1 manifest whose database queries
// and evaluates exactly like a single-file build.
func TestBuildShardedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI pipeline test")
	}
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	dbPath := filepath.Join(dir, "db.milret")
	if err := cmdGen([]string{"-kind", "objects", "-dir", corpus, "-per-category", "2", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-dir", corpus, "-db", dbPath, "-regions", "9", "-resolution", "6", "-shards", "3"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := store.IsManifest(dbPath); err != nil || !ok {
		t.Fatalf("sharded build did not write a manifest: %v %v", ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(store.ShardPath(dbPath, i)); err != nil {
			t.Fatalf("shard %d snapshot missing: %v", i, err)
		}
	}
	if err := cmdQuery([]string{"-db", dbPath, "-pos", "object-car-00", "-neg", "object-lamp-00", "-k", "3", "-mode", "identical"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-db", dbPath, "-target", "car", "-rounds", "1", "-mode", "identical"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGenRejectsUnknownKind(t *testing.T) {
	if err := cmdGen([]string{"-kind", "fractals", "-dir", t.TempDir()}); err == nil {
		t.Fatalf("unknown corpus kind accepted")
	}
}

func TestCmdBuildEmptyDir(t *testing.T) {
	if err := cmdBuild([]string{"-dir", t.TempDir(), "-db", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Fatalf("empty corpus dir accepted")
	}
}

func TestCmdQueryRequiresPositives(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	dbPath := filepath.Join(dir, "db.milret")
	if err := cmdGen([]string{"-kind", "objects", "-dir", corpus, "-per-category", "1", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-dir", corpus, "-db", dbPath, "-regions", "9", "-resolution", "6"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-db", dbPath, "-k", "3"}); err == nil {
		t.Fatalf("query without positives accepted")
	}
}

func TestCmdEvalUnknownTarget(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	dbPath := filepath.Join(dir, "db.milret")
	if err := cmdGen([]string{"-kind", "objects", "-dir", corpus, "-per-category", "1", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-dir", corpus, "-db", dbPath, "-regions", "9", "-resolution", "6"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-db", dbPath, "-target", "unicorn"}); err == nil {
		t.Fatalf("unknown target accepted")
	}
}

func TestShuffledIDsDeterministic(t *testing.T) {
	// shuffledIDs must be stable for a fixed seed and permute for others;
	// exercised through the exported Database indirectly in the pipeline
	// test, here we only verify the PRNG contract on a fake list.
	state := func(seed int64, n int) []int {
		s := uint64(seed)*2685821657736338717 + 1
		next := func(m int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(m))
		}
		out := make([]int, n)
		for i := range out {
			out[i] = next(n)
		}
		return out
	}
	a := state(1, 10)
	b := state(1, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("xorshift not deterministic")
		}
	}
}
