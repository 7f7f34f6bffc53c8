package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

// adoptBags builds an index by FromFlat over a fresh exact-capacity block
// holding bags in order.
func adoptBags(t *testing.T, dim int, ids, labels []string, bags [][]mat.Vector) *Index {
	t.Helper()
	counts := make([]int, len(bags))
	rows := 0
	for i, b := range bags {
		counts[i] = len(b)
		rows += len(b)
	}
	data := make([]float64, 0, rows*dim)
	for _, b := range bags {
		for _, inst := range b {
			data = append(data, inst...)
		}
	}
	x, err := FromFlat(dim, data, counts, ids, labels)
	if err != nil {
		t.Fatal(err)
	}
	return x
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
		opts := PruneOpts{Recall: 1}
		if got, want := sa.TopKPruned(q, k, exclude, par, opts), sb.TopKPruned(q, k, exclude, 1, opts); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("TopKPruned q%d k=%d", qi, k)
		}
	}
	if got, want := sa.MultiTopK(qs, k, exclude, 2), sb.MultiTopK(qs, k, exclude, 1); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("MultiTopK k=%d", k)
	}
	return ""
}

// Property: an index that adopted a block by FromFlat and then took random
// Appends, Deletes and UpdateLabels ranks bit for bit like an index built by
// Append alone from the same bags in the same order, with the same deletes
// and label updates. The cases cover an empty base, an empty tail, bags on
// both sides of the boundary, and snapshots taken before an append and
// scanned after it.
func TestQuickSegmentsMatchAppend(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(20)
		n := 1 + r.Intn(30)
		var ids, labels []string
		var bags [][]mat.Vector
		for i := 0; i < n; i++ {
			var prev []mat.Vector
			if i > 0 {
				prev = bags[i-1]
			}
			ids = append(ids, fmt.Sprintf("img-%04d", i))
			labels = append(labels, fmt.Sprintf("cat%d", i%3))
			bags = append(bags, randBag(r, dim, 4, prev))
		}
		split, appends := 1+r.Intn(n), true
		switch r.Intn(4) {
		case 0: // empty base
			split = 0
		case 1: // empty tail
			split, appends = n, false
		}
		adopted := adoptBags(t, dim, ids[:split], labels[:split], bags[:split])
		ref := New()
		for i := 0; i < n; i++ {
			if err := ref.Append(ids[i], labels[i], bags[i]); err != nil {
				t.Fatal(err)
			}
			if i >= split {
				if err := adopted.Append(ids[i], labels[i], bags[i]); err != nil {
					t.Fatal(err)
				}
			}
		}

		ops := r.Intn(40)
		for op := 0; op < ops; op++ {
			live := []int{}
			for i := range ref.ids {
				if !ref.IsDead(i) {
					live = append(live, i)
				}
			}
			switch c := r.Intn(4); {
			case c == 0 && appends:
				// A snapshot taken before the append must scan after it
				// exactly as it would have before.
				before, beforeRef := adopted.Snapshot(), ref.Snapshot()
				id := fmt.Sprintf("new-%04d", op)
				bag := randBag(r, dim, 4, bags[len(bags)-1])
				bags = append(bags, bag)
				for _, x := range []*Index{adopted, ref} {
					if err := x.Append(id, "new", bag); err != nil {
						t.Fatal(err)
					}
				}
				if msg := sameScans(r, before, beforeRef, dim); msg != "" {
					t.Logf("seed %d op %d: pre-append snapshot: %s", seed, op, msg)
					return false
				}
			case c == 1 && len(live) > 0:
				i := live[r.Intn(len(live))]
				for _, x := range []*Index{adopted, ref} {
					if err := x.Delete(i); err != nil {
						t.Fatal(err)
					}
				}
			case len(live) > 0:
				i := live[r.Intn(len(live))]
				label := fmt.Sprintf("relabel%d", op)
				for _, x := range []*Index{adopted, ref} {
					if err := x.UpdateLabel(i, label); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if adopted.Bytes() != ref.Bytes() || adopted.Instances() != ref.Instances() ||
			adopted.DeadInstances() != ref.DeadInstances() {
			t.Logf("seed %d: bytes %d/%d instances %d/%d", seed,
				adopted.Bytes(), ref.Bytes(), adopted.Instances(), ref.Instances())
			return false
		}
		if msg := sameScans(r, adopted.Snapshot(), ref.Snapshot(), dim); msg != "" {
			t.Logf("seed %d (split %d of %d): %s", seed, split, n, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
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
