package synth

import (
	"fmt"
	"image"
	"math/rand"
)

// Item is one generated corpus image with its ground-truth category.
type Item struct {
	ID    string
	Label string
	Image *image.RGBA
}

// ScenesPerCategory matches the paper's natural-scene database: 100 images
// per category, 500 total (§4.1).
const ScenesPerCategory = 100

// ObjectsPerCategory yields the paper's 228-image object database:
// 19 categories × 12 (§4.1).
const ObjectsPerCategory = 12

// ScenesN generates n images per scene category (for fast tests and scaled
// benchmarks).
func ScenesN(seed int64, n int) []Item {
	items := make([]Item, 0, len(SceneCategories)*n)
	ScenesEach(seed, n, func(it Item) error {
		items = append(items, it)
		return nil
	})
	return items
}

// ScenesEach streams n images per scene category to visit, one at a time,
// without materializing the corpus: the caller holds at most one decoded
// image, so arbitrarily large corpora build in O(1) memory. Each item is
// bit-identical to the corresponding ScenesN item — per-image seeds depend
// only on (seed, category, index), never on how many items are generated.
// A non-nil error from visit stops the stream and is returned.
func ScenesEach(seed int64, n int, visit func(Item) error) error {
	for ci, cat := range SceneCategories {
		gen := SceneGenerators[cat]
		for i := 0; i < n; i++ {
			r := rand.New(rand.NewSource(itemSeed(seed, ci, i)))
			it := Item{
				ID:    fmt.Sprintf("scene-%s-%03d", cat, i),
				Label: cat,
				Image: gen(r).ToRGBA(),
			}
			if err := visit(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// ObjectsN generates n images per object category.
func ObjectsN(seed int64, n int) []Item {
	items := make([]Item, 0, len(ObjectCategories)*n)
	ObjectsEach(seed, n, func(it Item) error {
		items = append(items, it)
		return nil
	})
	return items
}

// ObjectsEach streams n images per object category to visit without
// materializing the corpus; see ScenesEach for the contract.
func ObjectsEach(seed int64, n int, visit func(Item) error) error {
	for ci, cat := range ObjectCategories {
		gen := ObjectGenerators[cat]
		for i := 0; i < n; i++ {
			r := rand.New(rand.NewSource(itemSeed(seed, 100+ci, i)))
			it := Item{
				ID:    fmt.Sprintf("object-%s-%02d", cat, i),
				Label: cat,
				Image: gen(r).ToRGBA(),
			}
			if err := visit(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// itemSeed derives a per-image seed so each image is independent of how
// many others are generated (SplitMix64-style mixing).
func itemSeed(seed int64, cat, idx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(cat+1) + 0xbf58476d1ce4e5b9*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}
