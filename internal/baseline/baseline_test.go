package baseline

import (
	"math"
	"testing"

	"milret/internal/mat"
	"milret/internal/synth"
)

func TestSBNBagShape(t *testing.T) {
	items := synth.ScenesN(1, 1)
	b, err := BagFromImage(items[0].ID, items[0].Image, SBN)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != SBNDim {
		t.Fatalf("SBN dim %d, want %d", b.Dim(), SBNDim)
	}
	want := (GridSize - 5) * (GridSize - 5) // anchors 2..GridSize-4 inclusive
	if len(b.Instances) != want {
		t.Fatalf("SBN instances %d, want %d", len(b.Instances), want)
	}
}

func TestRowsBagShape(t *testing.T) {
	items := synth.ScenesN(2, 1)
	b, err := BagFromImage(items[0].ID, items[0].Image, Rows)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != RowsDim {
		t.Fatalf("Rows dim %d, want %d", b.Dim(), RowsDim)
	}
	if len(b.Instances) != GridSize-2 {
		t.Fatalf("Rows instances %d, want %d", len(b.Instances), GridSize-2)
	}
}

func TestFeaturesInRange(t *testing.T) {
	items := synth.ScenesN(3, 1)
	for _, m := range []Method{SBN, Rows} {
		b, err := BagFromImage(items[0].ID, items[0].Image, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range b.Instances {
			// Means in [0,1]; differences in [-1,1].
			for k := 0; k < 3; k++ {
				if inst[k] < 0 || inst[k] > 1 {
					t.Fatalf("%v: mean channel out of range: %v", m, inst[k])
				}
			}
			for k := 3; k < len(inst); k++ {
				if inst[k] < -1 || inst[k] > 1 {
					t.Fatalf("%v: difference out of range: %v", m, inst[k])
				}
			}
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := BagFromImage("x", nil, SBN); err == nil {
		t.Fatalf("nil image accepted")
	}
	small := synth.NewCanvas(4, 4, synth.RGB{128, 128, 128}).ToRGBA()
	if _, err := BagFromImage("x", small, SBN); err == nil {
		t.Fatalf("tiny image accepted")
	}
	items := synth.ScenesN(4, 1)
	if _, err := BagFromImage("x", items[0].Image, Method(99)); err == nil {
		t.Fatalf("unknown method accepted")
	}
}

func TestDeterministic(t *testing.T) {
	items := synth.ScenesN(5, 1)
	a, err := BagFromImage("a", items[0].Image, SBN)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BagFromImage("a", items[0].Image, SBN)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Instances {
		if !mat.Equal(a.Instances[i], b.Instances[i], 0) {
			t.Fatalf("baseline features not deterministic")
		}
	}
}

func TestMethodString(t *testing.T) {
	if SBN.String() != "sbn" || Rows.String() != "rows" || Method(9).String() != "unknown" {
		t.Fatalf("Method.String broken")
	}
}

// minBagDist is the min-instance distance between two bags — the similarity
// the DD ranking ultimately uses.
func minBagDist(a, b [][]float64) float64 {
	best := math.Inf(1)
	for _, u := range a {
		for _, v := range b {
			if d := mat.WeightedSqDist(u, v, mat.NewVector(len(u)).Fill(1)); d < best {
				best = d
			}
		}
	}
	return best
}

// Color statistics must separate sunsets (warm, dark) from fields (green,
// bright) — the regime the baseline was designed for.
func TestColorSeparability(t *testing.T) {
	items := synth.ScenesN(6, 4)
	bags := map[string][][][]float64{}
	for _, it := range items {
		if it.Label != "sunset" && it.Label != "field" {
			continue
		}
		b, err := BagFromImage(it.ID, it.Image, SBN)
		if err != nil {
			t.Fatal(err)
		}
		var insts [][]float64
		for _, v := range b.Instances {
			insts = append(insts, v)
		}
		bags[it.Label] = append(bags[it.Label], insts)
	}
	var within, across float64
	var nw, na int
	for _, lb := range []string{"sunset", "field"} {
		for i := range bags[lb] {
			for j := i + 1; j < len(bags[lb]); j++ {
				within += minBagDist(bags[lb][i], bags[lb][j])
				nw++
			}
		}
	}
	for _, a := range bags["sunset"] {
		for _, b := range bags["field"] {
			across += minBagDist(a, b)
			na++
		}
	}
	if within/float64(nw) >= across/float64(na) {
		t.Fatalf("SBN features do not separate sunset from field: within %v >= across %v",
			within/float64(nw), across/float64(na))
	}
}
