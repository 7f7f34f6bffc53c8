package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"milret/internal/feature"
	"milret/internal/retrieval"
)

// corpusDigest hashes a featurized corpus: every item's ID and label, then
// its bag's instance names and the bits of every value, in corpus and
// instance order.
func corpusDigest(items []retrieval.Item) string {
	h := sha256.New()
	var buf [8]byte
	for _, it := range items {
		h.Write([]byte(it.ID))
		h.Write([]byte{0})
		h.Write([]byte(it.Label))
		h.Write([]byte{0})
		for i, inst := range it.Bag.Instances {
			h.Write([]byte(it.Bag.Names[i]))
			h.Write([]byte{0})
			for _, v := range inst {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusDigestsPinned pins every experiment corpus kind bit for bit at
// BenchScale sizes, as feature's TestBagDigestsPinned pins single bags; the
// rotated objects are pinned with rotation instances off and on. A digest
// change means a corpus changed: an item's ID, label or position, or a
// bag's instances. Never re-pin one to make a refactor pass.
func TestCorpusDigestsPinned(t *testing.T) {
	cfg := benchCfg()
	for _, tc := range []struct {
		kind string
		opts feature.Options
		want string
	}{
		{"scenes", feature.Options{}, "6c8326f5f4c6b875d985566caa0c182827b86cdb080480cc88687f3c8cf89b48"},
		{"objects", feature.Options{}, "aa3a4c36861975407a6eedf4d00921b7e90d248a013fe13c8a758e7352bbc963"},
		{"scenes-color", feature.Options{}, "34e19775b6d0486cf45e4302eff2f7721ed56e40285e2a70ff67576b8b9090d8"},
		{"scenes-sbn", feature.Options{}, "00050ddf4448b640c25eacf77600eb49a86b7fd7994cfb691b45a63db2723431"},
		{"scenes-rows", feature.Options{}, "8783f6aec515e23751faa4c9a5b41f3c341d98bdc6bf0c10ea2675af93fd7570"},
		{"objects-rotated", feature.Options{}, "8b942b76343b079136470cbbd0b26b588deed37705171c53b390d254671c0062"},
		{"objects-rotated", feature.Options{Rotations: true}, "c9802e4e27743462d99086831d3258051a098138b69246339ec9543f51c43593"},
	} {
		perCat := cfg.Scale.ScenesPerCat
		if strings.HasPrefix(tc.kind, "objects") {
			perCat = cfg.Scale.ObjectsPerCat
		}
		name := tc.kind
		if tc.opts.Rotations {
			name += ", rotation instances"
		}
		t.Run(name, func(t *testing.T) {
			items, err := featurizedCorpus(tc.kind, cfg.Seed, perCat, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := corpusDigest(items); got != tc.want {
				t.Fatalf("corpus digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
