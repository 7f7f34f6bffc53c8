package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
	"milret/internal/synth"
)

// sceneDataset featurizes a fixed synthetic scene set into the paper's
// geometry (40 instances × 100 dims per bag): three positives of the first
// scene category, one negative from each of the next two.
func sceneDataset(t testing.TB) *mil.Dataset {
	t.Helper()
	items := synth.ScenesN(7, 3) // category-major: 3 images per category
	bag := func(i int) *mil.Bag {
		b, err := feature.BagFromImage(items[i].ID, gray.FromImage(items[i].Image), feature.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return &mil.Dataset{
		Positive: []*mil.Bag{bag(0), bag(1), bag(2)},
		Negative: []*mil.Bag{bag(3), bag(6)},
	}
}

// conceptDigest hashes everything a training run reports: the bits of the
// concept point, the effective weights and the objective, plus the start
// and evaluation counts. Two runs with equal digests followed the same
// trajectory to the same concept.
func conceptDigest(c *Concept) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range c.Point {
		put(math.Float64bits(v))
	}
	for _, v := range c.Weights {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(c.NegLogDD))
	put(uint64(c.Starts))
	put(uint64(c.Evals))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests were captured on the commit before the training fast path
// (SIMD gradient kernel, probe→gradient reuse, packed example set) landed.
// They must never change: the fast path is an implementation detail, and
// the concept cache, the distributed ≡ local spine and the benchmark's
// oracle all assume a training run is a pure function of its inputs.
var goldenDigests = map[string]string{
	"bench32/original":        "a2ff663de296029f4603cc5aab650e357abd813c90c625494f91e2c941cc4eeb",
	"bench32/identical":       "4d7f005d2b819cd4c0c065fdf065117a673d59d6bbe98faba3ebdbf436113b37",
	"bench32/sum-b0":          "9a2f1fabff5c059cd636c7b12f69accee29012bfdec4d3a529ca16a7060cdcb8",
	"bench32/sum-b0.5":        "50ad1686b395a94040223d9c668fdc1245e224f938ceaf0898636c6c890edaa6",
	"bench32/emdd-original":   "a4a9479e4db3ffded7e4678590c6165b7786c6cac4880e237893c6bbf935b78f",
	"bench32/emdd-sum-b0.5":   "e4c51d46e1953c86d5e85e7adfe2630efcddc6c9af1d6d39695acbdc8d05d907",
	"bench32/sum-b0-defaults": "8a36d1de1f56a532fa5e2fff7f7514c753013d75d5290f505c55feeb5b58e8de",
	"scenes/original":         "36782430075fcdfa374fc8b00ff85b6d59ab4ddf5adb19c61c0677ded75b1c00",
	"scenes/identical":        "e8da7805c41c937d18a7dfaa9ffc7c0603ad0a904f9e861239dc36d911c5bf23",
	"scenes/sum-b0":           "6881add34162e1be9e9bff43cdd99646d35aafe4d602af07655b0b3a01e54ece",
	"scenes/sum-b0.5":         "f34a4b41dce0e3dbec3db18ec718927c2cdbcd444d961f0fcaa1c59be89f5705",
	"scenes/emdd-original":    "e3131ec50edf076fc8bdc7cbfb98352763bc8dc822b0a5b433a9416b4150058e",
	"scenes/emdd-sum-b0.5":    "392bdca883de131cacb8a69cc4aa55e6d1252457f505232fe5ecfd8085c04ca9",
	"scenes/sum-b0-defaults":  "f0edc0ce8265605cd5d8e0627ae02f2ff02ebeb389a53cd84514dafb122b39bc",
}

// racedDigests pin Train itself — the successive-halving race on its default
// schedule — for the same sets and configurations. They were captured once,
// on the commit that introduced the race, and are held to the same rule:
// a change that moves one has changed what training returns.
var racedDigests = map[string]string{
	"bench32/original":        "6ea80d2fb9fff7a0094249fcabad6a9cf7ee9bbec46afba801fb7c6ed45f7e6f",
	"bench32/identical":       "4d7f005d2b819cd4c0c065fdf065117a673d59d6bbe98faba3ebdbf436113b37",
	"bench32/sum-b0":          "3ea4a0eaecd8b80f2aafc5781c6b64c00ab439e878f04026948a25fc0a89b5cf",
	"bench32/sum-b0.5":        "cd5e58aeb402cc93a6d5b19aece2e7b9f9ae886bb7f94d1d60fde4c26b498178",
	"bench32/sum-b0-defaults": "1d7a5c0b28d612cf68ebc3a0f6dc1f642f536c951577ff742f9cc41e479a74f6",
	"scenes/original":         "75ee5d122425bb2d8168e60eac3c43c929d0dc06da8781a57b0d02f544ac8fba",
	"scenes/identical":        "bd48d27a84244e9bd57f56d6840615580f13c946c40716f58caf38d9df2f051f",
	"scenes/sum-b0":           "35b422b2574104e4b69434bcc1e49565ca1aa8de12f92d6813d96a1da47175bb",
	"scenes/sum-b0.5":         "a784ecb9ce6f6596d432ffd99da94ebb67cb42806960a389f40ad8b665120221",
	"scenes/sum-b0-defaults":  "0a247e58dc21c1591fe918cab1656fa3dd63aa175325e5ad503b477c02a9b13e",
}

// exhaustive is the race's oracle: the same driver with no barriers, so every
// start runs to the cap. It is what Train was before the race.
func exhaustive(ds *mil.Dataset, cfg Config) (*Concept, error) {
	return train(ds, cfg.withDefaults(), nil)
}

// eachKernel runs f under every kernel tier mat.SetKernel can select on this
// host and build — scalar always, avx2 and avx512 where the CPU has them —
// and restores the one that was in force. The log names the tiers a run did
// not cover. Under the race detector the scalar loops run only when they are
// the tier in force: instrumented, they take minutes, and the purego leg runs
// them uninstrumented.
func eachKernel(t *testing.T, f func(kernel string)) {
	t.Helper()
	prev := mat.Kernel()
	defer mat.SetKernel(prev)
	for _, kernel := range []string{"scalar", "avx2", "avx512"} {
		if raceEnabled && kernel == "scalar" && prev != "scalar" {
			continue
		}
		if err := mat.SetKernel(kernel); err != nil {
			t.Logf("not exercised: %v", err)
			continue
		}
		f(kernel)
	}
}

// TestGoldenBitIdentity pins training output, bit for bit, across kernels —
// every tier the host can select, in this one process (and the scalar loops
// once more under -tags purego: the digests are the same) — and across
// Parallelism settings: the exhaustive multi-start and EM-DD against the
// digests that predate every fast path, the race against its own.
func TestGoldenBitIdentity(t *testing.T) {
	sets := []struct {
		name string
		ds   *mil.Dataset
	}{
		{"bench32", benchDataset(3, 2)},
		{"scenes", sceneDataset(t)},
	}
	// A shortened schedule keeps the full matrix affordable under -race;
	// the cold-query shape (server defaults) runs at full length below.
	short := optimize.Options{MaxIter: 30}
	cases := []struct {
		name string
		emdd bool
		cfg  Config
	}{
		{"original", false, Config{Mode: Original, StartBags: 1, Opt: short}},
		{"identical", false, Config{Mode: Identical, StartBags: 1, Opt: short}},
		{"sum-b0", false, Config{Mode: SumConstraint, StartBags: 1, Opt: short}},
		{"sum-b0.5", false, Config{Mode: SumConstraint, Beta: 0.5, StartBags: 1, Opt: short}},
		{"emdd-original", true, Config{Mode: Original, StartBags: 1, Opt: short}},
		{"emdd-sum-b0.5", true, Config{Mode: SumConstraint, Beta: 0.5, StartBags: 1, Opt: short}},
		{"sum-b0-defaults", false, Config{Mode: SumConstraint}},
	}
	// pinned trains at each Parallelism and holds the one digest to want.
	pinned := func(t *testing.T, table map[string]string, name string, ds *mil.Dataset, cfg Config,
		train func(*mil.Dataset, Config) (*Concept, error), pars ...int) {
		t.Helper()
		want, ok := table[name]
		inForce := mat.Kernel()
		eachKernel(t, func(kernel string) {
			pars := pars
			if kernel != inForce {
				// The worker-swapping Parallelisms in between are a property
				// of the driver, not of a kernel: once is enough.
				pars = []int{1, runtime.NumCPU()}
			}
			for _, par := range pars {
				cfg.Parallelism = par
				c, err := train(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				digest := conceptDigest(c)
				if !ok {
					t.Fatalf("no golden digest; captured %q: %q,", name, digest)
				}
				if digest != want {
					t.Fatalf("training output changed on the %s kernel at Parallelism %d: digest %s, golden %s", kernel, par, digest, want)
				}
			}
		})
	}
	for _, set := range sets {
		for _, tc := range cases {
			name := set.name + "/" + tc.name
			if testing.Short() && tc.name == "sum-b0-defaults" {
				continue
			}
			t.Run(name, func(t *testing.T) {
				if tc.emdd {
					pinned(t, goldenDigests, name, set.ds, tc.cfg, TrainEMDD, 1, runtime.NumCPU())
					return
				}
				pinned(t, goldenDigests, name, set.ds, tc.cfg, exhaustive, 1, runtime.NumCPU())
				// 2 and 5 leave workers idle in the late rungs (5 survivors,
				// then fewer) and make them swap starts between rungs.
				pinned(t, racedDigests, name, set.ds, tc.cfg, Train, 1, 2, 5, runtime.NumCPU())
			})
		}
	}
}
