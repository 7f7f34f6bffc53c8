package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"milret/internal/mat"
)

// randBag draws a bag of 1..maxInst instances; with prev non-nil it
// sometimes reuses prev's first instance so exact distance ties occur.
func randBag(r *rand.Rand, dim, maxInst int, prev []mat.Vector) []mat.Vector {
	insts := make([]mat.Vector, 1+r.Intn(maxInst))
	for j := range insts {
		insts[j] = make(mat.Vector, dim)
		for k := range insts[j] {
			insts[j][k] = r.NormFloat64()
		}
	}
	if prev != nil && r.Intn(4) == 0 {
		insts[0] = prev[0].Clone()
	}
	return insts
}

// sameScans reports the first scan on which a and b differ, or "".
func sameScans(r *rand.Rand, a, b Snapshot, dim int) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("Len %d vs %d", a.Len(), b.Len())
	}
	if a.Len() == 0 {
		return ""
	}
	qs := []Query{randQueryFor(r, dim), randQueryFor(r, dim), randQueryFor(r, dim)}
	if r.Intn(4) == 0 {
		qs[2].Weights[r.Intn(dim)] = -0.5 // unarmed filter, unpruned rows
	}
	k := 1 + r.Intn(a.Len()+1)
	exclude := map[string]bool{}
	for i := 0; i < a.Len(); i++ {
		if r.Intn(8) == 0 {
			exclude[a.ids[i]] = true
		}
	}
	sa, sb := Sharded{a}, Sharded{b}
	for qi, q := range qs {
		par := 1 + r.Intn(3)
		if got, want := sa.Rank(q, exclude, par), sb.Rank(q, exclude, 1); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("Rank q%d", qi)
		}
		if got, want := sa.TopK(q, k, exclude, par), sb.TopK(q, k, exclude, 1); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("TopK q%d k=%d", qi, k)
		}
	}
	if got, want := sa.MultiTopK(qs, k, exclude, 2), sb.MultiTopK(qs, k, exclude, 1); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("MultiTopK k=%d", k)
	}
	return ""
}

// TestTailsGrowByDoubling: the row tail and the sketch tail reallocate only
// by at least doubling, so n appends copy O(n) tail bytes in all, and a
// reallocation never disturbs what an earlier snapshot scans.
func TestTailsGrowByDoubling(t *testing.T) {
	const dim = 16
	r := rand.New(rand.NewSource(4))
	x := New()
	var snaps []Snapshot
	var bags [][]mat.Vector
	grows := 0
	for i := 0; i < 600; i++ {
		rowCap, boxCap := cap(x.data), cap(x.tailBoxes)
		bag := randBag(r, dim, 8, nil)
		if err := x.Append(fmt.Sprint("b", i), "l", bag); err != nil {
			t.Fatal(err)
		}
		bags = append(bags, bag)
		for _, c := range []struct {
			name     string
			old, now int
		}{{"row", rowCap, cap(x.data)}, {"sketch", boxCap, cap(x.tailBoxes)}} {
			if c.now != c.old {
				grows++
				if c.old > 0 && c.now < 2*c.old {
					t.Fatalf("append %d: %s tail grew %d → %d, less than doubling", i, c.name, c.old, c.now)
				}
			}
		}
		if i%97 == 0 {
			snaps = append(snaps, x.Snapshot())
		}
	}
	if grows > 40 {
		t.Fatalf("%d tail reallocations over 600 appends", grows)
	}
	for _, s := range snaps {
		ref := New()
		for i, bag := range bags[:s.Len()] {
			if err := ref.Append(fmt.Sprint("b", i), "l", bag); err != nil {
				t.Fatal(err)
			}
		}
		if msg := sameScans(r, s, ref.Snapshot(), dim); msg != "" {
			t.Fatalf("snapshot of %d bags after later appends: %s", s.Len(), msg)
		}
	}
}

// TestHeldPartialTileIsNeverWritten: a snapshot whose tail ends in a partly
// filled box tile — 13 tail bags, the last 5 of them in a tile of 8 — ranks
// the same after later Appends fill that tile and more, and not one element
// of the box tiles it screens changes. Its screen loads all eight lanes of
// a tile, padding included, so Append must put the next lane of a held
// tile into a copy. Under -race a reader goroutine loads every element the
// held snapshot's screen loads, and scans it, while the appends run.
func TestHeldPartialTileIsNeverWritten(t *testing.T) {
	const dim, baseBags, tailBags = 12, 10, 13
	r := rand.New(rand.NewSource(49))
	var bags [][]mat.Vector
	var data []float64
	counts, ids, lbs := make([]int, baseBags), make([]string, baseBags), make([]string, baseBags)
	for i := range baseBags + tailBags + 20 {
		bags = append(bags, randBag(r, dim, 4, nil))
		if i < baseBags {
			counts[i], ids[i], lbs[i] = len(bags[i]), fmt.Sprint("b", i), "l"
			for _, v := range bags[i] {
				data = append(data, v...)
			}
		}
	}
	x, err := FromFlat(dim, data, counts, ids, lbs)
	if err != nil {
		t.Fatal(err)
	}
	ref := New()
	for i, bag := range bags {
		if i >= baseBags && i < baseBags+tailBags {
			if err := x.Append(fmt.Sprint("b", i), "l", bag); err != nil {
				t.Fatal(err)
			}
		}
		if i < baseBags+tailBags {
			if err := ref.Append(fmt.Sprint("b", i), "l", bag); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := x.Snapshot()
	if len(s.tailPart) == 0 {
		t.Fatal("13 tail bags left no partly filled tile")
	}
	tiles := func() []float32 { return slices.Concat(s.baseBoxes, s.tailBoxes, s.tailPart) }
	held := tiles()
	q := randQueryFor(r, dim)
	want := Sharded{ref.Snapshot()}.TopK(q, 7, nil, 1)
	if got := (Sharded{s}).TopK(q, 7, nil, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("held snapshot ranks %v, the same bags appended afresh %v", got, want)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum float32
			for _, v := range tiles() {
				sum += v
			}
			if got := (Sharded{s}).TopK(q, 7, nil, 1); !reflect.DeepEqual(got, want) || math.IsNaN(float64(sum)) {
				t.Errorf("held snapshot ranks %v during appends, %v before", got, want)
				return
			}
		}
	}()
	for i := baseBags + tailBags; i < len(bags); i++ {
		if err := x.Append(fmt.Sprint("b", i), "l", bags[i]); err != nil {
			t.Fatal(err)
		}
		if i%6 == 0 {
			x.Snapshot() // a newer snapshot may hold the tile being filled
		}
	}
	close(stop)
	wg.Wait()
	if !slices.Equal(tiles(), held) {
		t.Fatal("an Append wrote into a box tile the held snapshot screens")
	}
	if got := (Sharded{s}).TopK(q, 7, nil, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("held snapshot ranks %v after appends, %v before", got, want)
	}
}
