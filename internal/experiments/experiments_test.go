package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"milret/internal/feature"
)

func benchCfg() Config {
	return Config{Seed: 7, Scale: BenchScale()}
}

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTable31Shape(t *testing.T) {
	tabs, err := Table31(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("Table31 has %d rows, want 6", len(tab.Rows))
	}
	// Similar pairs must out-correlate dissimilar pairs on average — the
	// qualitative content of Table 3.1.
	var sim, dis float64
	for i := 0; i < 4; i++ {
		sim += cell(t, tab, i, 2)
	}
	for i := 4; i < 6; i++ {
		dis += cell(t, tab, i, 2)
	}
	if sim/4 <= dis/2 {
		t.Fatalf("similar pairs (%v) do not out-correlate dissimilar (%v)", sim/4, dis/2)
	}
}

func TestFig33_34RegionBeatsWhole(t *testing.T) {
	tabs, err := Fig33_34(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	whole := cell(t, tab, 0, 1)
	best := cell(t, tab, 1, 1)
	if best <= whole {
		t.Fatalf("best region pair (%v) must beat whole-image corr (%v)", best, whole)
	}
}

func TestFig37_39WeightBehaviour(t *testing.T) {
	tabs, err := Fig37_39(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 mode rows, got %d", len(tab.Rows))
	}
	// identical: all weights exactly one.
	if got := cell(t, tab, 1, 2); got != 1 {
		t.Fatalf("identical mean weight = %v", got)
	}
	// inequality β=0.5 keeps at least half the weight mass.
	if got := cell(t, tab, 2, 5); got < 0.5-1e-6 {
		t.Fatalf("constrained sum(w)/n = %v < 0.5", got)
	}
	// original DD weight mass must be below the constrained one
	// (overfitting pressure, §3.6).
	if cell(t, tab, 0, 5) >= cell(t, tab, 2, 5)+0.25 {
		t.Fatalf("original DD kept unexpectedly high weight mass: %v vs %v",
			cell(t, tab, 0, 5), cell(t, tab, 2, 5))
	}
}

func TestFig47MisleadingCurve(t *testing.T) {
	tabs, err := Fig47(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if got := cell(t, tab, 0, 2); got != 0 {
		t.Fatalf("first precision = %v, want 0", got)
	}
	if got := cell(t, tab, 7, 2); got != 0.875 {
		t.Fatalf("final precision = %v, want 7/8", got)
	}
}

func TestFig43RunsAndReports(t *testing.T) {
	tabs, err := Fig43(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) < 2 {
		t.Fatalf("sample run has %d stages", len(tab.Rows))
	}
	// Final ranked retrieval must beat random: with 5 categories, random
	// top-12 has ~2.4 correct; require at least 4.
	final := tab.Rows[len(tab.Rows)-1]
	correct, err := strconv.Atoi(final[2])
	if err != nil {
		t.Fatal(err)
	}
	if correct < 4 {
		t.Fatalf("final top-12 has only %d correct", correct)
	}
}

func TestFig422SubsetCheaper(t *testing.T) {
	tabs, err := Fig422(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 start-bag rows, got %d", len(tab.Rows))
	}
	// Evals must grow with the number of start bags.
	if cell(t, tab, 0, 3) >= cell(t, tab, 4, 3) {
		t.Fatalf("1-bag training not cheaper than 5-bag: %v vs %v",
			cell(t, tab, 0, 3), cell(t, tab, 4, 3))
	}
}

func TestRunRegistry(t *testing.T) {
	if _, err := Run("NoSuch", benchCfg()); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
	tabs, err := Run("Fig47", benchCfg())
	if err != nil || len(tabs) == 0 {
		t.Fatalf("registry dispatch failed: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %q has nil runner", e.ID)
		}
	}
	if len(seen) != 22 {
		t.Fatalf("registry has %d experiments, want 22 (19 paper artifacts + 3 extensions)", len(seen))
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  "hello",
	}
	tab.AddRow("v", 0.5)
	tab.AddRow(12, "w")
	var buf bytes.Buffer
	if err := tab.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== X — demo ==", "a", "bb", "0.500", "12", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,bb\n") {
		t.Fatalf("CSV header wrong: %q", buf.String())
	}
}

func TestCorpusCacheReuse(t *testing.T) {
	cfg := benchCfg()
	for _, kind := range []string{"scenes", "objects", "scenes-color", "scenes-sbn", "scenes-rows", "objects-rotated"} {
		a, err := featurizedCorpus(kind, cfg.Seed, 2, feature.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := featurizedCorpus(kind, cfg.Seed, 2, feature.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if &a[0] != &b[0] {
			t.Fatalf("%s: corpus cache did not reuse the featurized items", kind)
		}
	}
	plain, err := featurizedCorpus("objects-rotated", cfg.Seed, 2, feature.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := featurizedCorpus("objects-rotated", cfg.Seed, 2, feature.Options{Rotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if &plain[0] == &rot[0] {
		t.Fatalf("objects-rotated with and without rotation instances share one cache entry")
	}
	if _, err := featurizedCorpus("bogus", 1, 1, feature.Options{}); err == nil {
		t.Fatalf("unknown corpus kind accepted")
	}
}

func TestExtEMDDRuns(t *testing.T) {
	tabs, err := ExtEMDD(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 algorithm rows, got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "diverse density" || tab.Rows[1][0] != "em-dd" {
		t.Fatalf("rows mislabelled: %v", tab.Rows)
	}
}

func TestExtRotationsHelps(t *testing.T) {
	tabs, err := ExtRotations(benchCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	plain := cell(t, tab, 0, 2)
	withRot := cell(t, tab, 1, 2)
	if withRot < plain-0.05 {
		t.Fatalf("rotation instances hurt on rotated corpus: %v vs %v", withRot, plain)
	}
}
