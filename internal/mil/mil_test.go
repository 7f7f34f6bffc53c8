package mil

import (
	"math"
	"testing"

	"milret/internal/mat"
)

func bag(id string, insts ...mat.Vector) *Bag {
	return &Bag{ID: id, Instances: insts}
}

func TestBagDim(t *testing.T) {
	b := bag("x", mat.Vector{1, 2, 3})
	if b.Dim() != 3 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	if (&Bag{}).Dim() != 0 {
		t.Fatalf("empty bag Dim != 0")
	}
}

func TestBagValidate(t *testing.T) {
	ok := bag("ok", mat.Vector{1, 2}, mat.Vector{3, 4})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid bag rejected: %v", err)
	}
	cases := map[string]*Bag{
		"empty":     {ID: "e"},
		"zero-dim":  bag("z", mat.Vector{}),
		"ragged":    bag("r", mat.Vector{1, 2}, mat.Vector{1}),
		"nan":       bag("n", mat.Vector{1, math.NaN()}),
		"inf":       bag("i", mat.Vector{math.Inf(1), 0}),
		"bad names": {ID: "bn", Instances: []mat.Vector{{1}}, Names: []string{"a", "b"}},
	}
	for name, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	named := &Bag{ID: "nm", Instances: []mat.Vector{{1}, {2}}, Names: []string{"a", "b"}}
	if err := named.Validate(); err != nil {
		t.Fatalf("parallel names rejected: %v", err)
	}
}

func TestDatasetValidate(t *testing.T) {
	ds := &Dataset{
		Positive: []*Bag{bag("p1", mat.Vector{1, 2})},
		Negative: []*Bag{bag("n1", mat.Vector{3, 4})},
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	if err := (&Dataset{}).Validate(); err == nil {
		t.Fatalf("dataset without positives accepted")
	}
	mixed := &Dataset{
		Positive: []*Bag{bag("p1", mat.Vector{1, 2})},
		Negative: []*Bag{bag("n1", mat.Vector{3})},
	}
	if err := mixed.Validate(); err == nil {
		t.Fatalf("mixed-dimension dataset accepted")
	}
	nilBag := &Dataset{Positive: []*Bag{nil}}
	if err := nilBag.Validate(); err == nil {
		t.Fatalf("nil bag accepted")
	}
	noNeg := &Dataset{Positive: []*Bag{bag("p", mat.Vector{1})}}
	if err := noNeg.Validate(); err != nil {
		t.Fatalf("dataset without negatives should be legal: %v", err)
	}
}

func TestDatasetDimAndCounts(t *testing.T) {
	ds := &Dataset{
		Positive: []*Bag{bag("p1", mat.Vector{1, 2}, mat.Vector{3, 4})},
		Negative: []*Bag{bag("n1", mat.Vector{5, 6})},
	}
	if ds.Dim() != 2 {
		t.Fatalf("Dim = %d", ds.Dim())
	}
	if (&Dataset{}).Dim() != 0 {
		t.Fatalf("empty dataset Dim != 0")
	}
}
