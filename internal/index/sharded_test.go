package index

import (
	"testing"

	"milret/internal/mat"
)

// UpdateLabel is metadata-only and copy-on-write: no rows move, snapshots
// taken before the update keep the old label, and scans over old snapshots
// race-free while labels mutate (the -race build of the retrieval tests
// exercises the concurrent side).
func TestUpdateLabelSemantics(t *testing.T) {
	x := New()
	if err := x.UpdateLabel(0, "l"); err == nil {
		t.Fatal("label update on empty index accepted")
	}
	for i, id := range []string{"a", "b"} {
		if err := x.Append(id, "old", []mat.Vector{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	before := x.Snapshot()
	if err := x.UpdateLabel(1, "new"); err != nil {
		t.Fatal(err)
	}
	after := x.Snapshot()
	q := Query{Point: []float64{0}, Weights: []float64{1}}
	if got := (Sharded{before}).Rank(q, nil, 1)[1].Label; got != "old" {
		t.Fatalf("pre-update snapshot sees %q", got)
	}
	if got := (Sharded{after}).Rank(q, nil, 1)[1].Label; got != "new" {
		t.Fatalf("post-update snapshot sees %q", got)
	}
	if x.Instances() != 2 || x.Dead() != 0 {
		t.Fatalf("label update moved rows: %d instances, %d dead", x.Instances(), x.Dead())
	}
	if err := x.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := x.UpdateLabel(1, "x"); err == nil {
		t.Fatal("label update of deleted bag accepted")
	}
	if err := x.UpdateLabel(5, "x"); err == nil {
		t.Fatal("label update out of range accepted")
	}
}
