// Package mil defines the multiple-instance learning vocabulary of §2.1.2:
// instances are k-dimensional feature vectors, bags are collections of
// instances labelled collectively. A bag labelled TRUE contains at least one
// instance of the target concept; a bag labelled FALSE contains none. In the
// retrieval system every example image is a bag whose instances are the
// standardized feature vectors of its sub-regions and their mirrors.
package mil

import (
	"fmt"

	"milret/internal/mat"
)

// Bag is an unordered collection of instances from one example (one image).
type Bag struct {
	// ID identifies the source example, typically the image identifier.
	ID string
	// Instances are the feature vectors; all must share one dimension.
	Instances []mat.Vector
	// Names optionally labels each instance (e.g. the region name) for
	// diagnostics; if non-nil it must be parallel to Instances.
	Names []string
}

// Dim returns the instance dimensionality, or 0 for an empty bag.
func (b *Bag) Dim() int {
	if len(b.Instances) == 0 {
		return 0
	}
	return len(b.Instances[0])
}

// Validate checks internal consistency: at least one instance, uniform
// dimensionality, finite values, and parallel Names when present.
func (b *Bag) Validate() error {
	if len(b.Instances) == 0 {
		return fmt.Errorf("mil: bag %q has no instances", b.ID)
	}
	dim := b.Dim()
	if dim == 0 {
		return fmt.Errorf("mil: bag %q has zero-dimensional instances", b.ID)
	}
	for i, inst := range b.Instances {
		if len(inst) != dim {
			return fmt.Errorf("mil: bag %q instance %d has dim %d, want %d", b.ID, i, len(inst), dim)
		}
		if !inst.IsFinite() {
			return fmt.Errorf("mil: bag %q instance %d contains non-finite values", b.ID, i)
		}
	}
	if b.Names != nil && len(b.Names) != len(b.Instances) {
		return fmt.Errorf("mil: bag %q has %d names for %d instances", b.ID, len(b.Names), len(b.Instances))
	}
	return nil
}

// Dataset is a labelled training set: the positive bags B⁺ and negative
// bags B⁻ of §2.2.1.
type Dataset struct {
	Positive []*Bag
	Negative []*Bag
}

// Dim returns the instance dimensionality of the dataset, or 0 if it has no
// bags.
func (d *Dataset) Dim() int {
	for _, b := range d.Positive {
		if dim := b.Dim(); dim > 0 {
			return dim
		}
	}
	for _, b := range d.Negative {
		if dim := b.Dim(); dim > 0 {
			return dim
		}
	}
	return 0
}

// Validate checks the dataset for training: at least one positive bag,
// every bag individually valid, and a single common dimensionality. A
// dataset with no negative bags is legal (the paper's first training round
// may contain few or no negatives).
func (d *Dataset) Validate() error {
	if len(d.Positive) == 0 {
		return fmt.Errorf("mil: dataset has no positive bags")
	}
	dim := 0
	check := func(bags []*Bag, label string) error {
		for _, b := range bags {
			if b == nil {
				return fmt.Errorf("mil: nil %s bag", label)
			}
			if err := b.Validate(); err != nil {
				return err
			}
			if dim == 0 {
				dim = b.Dim()
			} else if b.Dim() != dim {
				return fmt.Errorf("mil: bag %q has dim %d, dataset dim %d", b.ID, b.Dim(), dim)
			}
		}
		return nil
	}
	if err := check(d.Positive, "positive"); err != nil {
		return err
	}
	return check(d.Negative, "negative")
}
