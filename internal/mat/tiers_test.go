package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The tier-identity harness: every exported entry point of the five kernel
// families (scan, box screen and sketch, training distance and gradient,
// likelihood, clip) runs on every tier over every input class and must
// return its reference's bits — the scalar loops, and for the likelihood
// math.Exp and math.Log element by element. TestKernelTiers is the table,
// FuzzKernelTiers its fuzz target. Only a NaN's payload may differ (see
// kernel.go), so comparisons use eqBits.

// eqBits reports result equivalence under the kernel contract: identical
// bits, or both NaN.
func eqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// withTier runs f with the named kernel tier selected, restoring the
// dispatch state afterwards. The tier must be one the host can run.
func withTier(tier string, f func()) {
	prev := Kernel()
	if err := SetKernel(tier); err != nil {
		panic(err)
	}
	defer SetKernel(prev)
	f()
}

// withKernel runs f on exactly the AVX2 tier or on the scalar loops.
func withKernel(avx2 bool, f func()) {
	if avx2 {
		withTier("avx2", f)
	} else {
		withTier("scalar", f)
	}
}

func needAVX2(t testing.TB) {
	t.Helper()
	if !kernelAVX2Available() {
		t.Skip("no AVX2 on this host (or purego build); nothing to differentiate")
	}
}

// simdTier is one assembly tier and whether this host and build can run it.
type simdTier struct {
	name string
	ok   bool
}

func allSIMDTiers() []simdTier {
	return []simdTier{{"avx2", kernelAVX2Available()}, {"avx512", kernelAVX512Available()}}
}

// simdTiers lists the assembly tiers that this host and build can run, and
// names the ones they cannot — what a three-way identity test did not cover.
func simdTiers() (run []string, missing string) {
	for _, tier := range allSIMDTiers() {
		if tier.ok {
			run = append(run, tier.name)
		} else {
			missing += " no " + tier.name + " on this host (or a purego build);"
		}
	}
	return run, missing
}

// eachSIMDTier runs f once per assembly tier as a subtest of that name; a
// tier the host lacks is a skipped subtest that says so.
func eachSIMDTier(t *testing.T, f func(t *testing.T, tier string)) {
	for _, tier := range allSIMDTiers() {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.ok {
				t.Skipf("no %s on this host (or a purego build); nothing to differentiate", tier.name)
			}
			f(t, tier.name)
		})
	}
}

// TestKernelDispatchAPI covers SetKernel/Kernel and the env-style modes. Its
// log says which tiers this host ran, so a CI run records what it covered.
func TestKernelDispatchAPI(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)
	run, missing := simdTiers()
	t.Logf("mat.Kernel() = %q; SIMD tiers exercised here: %v;%s", prev, run, missing)

	if err := SetKernel("scalar"); err != nil {
		t.Fatalf("SetKernel(scalar): %v", err)
	}
	if Kernel() != "scalar" {
		t.Fatalf("Kernel() = %q after forcing scalar", Kernel())
	}
	if err := SetKernel("bogus"); err == nil {
		t.Fatal("SetKernel(bogus) accepted")
	}
	if Kernel() != "scalar" {
		t.Fatalf("Kernel() = %q after rejected mode; must be unchanged", Kernel())
	}
	widest := "scalar"
	for _, tier := range allSIMDTiers() {
		err := SetKernel(tier.name)
		if tier.ok {
			if err != nil || Kernel() != tier.name {
				t.Fatalf("SetKernel(%s) on a host that has it: err=%v kernel=%q", tier.name, err, Kernel())
			}
			widest = tier.name
		} else if err == nil {
			t.Fatalf("SetKernel(%s) succeeded without support for it", tier.name)
		}
	}
	if kernelAVX512Available() && !kernelAVX2Available() {
		t.Fatal("AVX-512 reported without AVX2: the avx512 tier runs the scan kernels' AVX2 bodies")
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	if Kernel() != widest {
		t.Fatalf("Kernel() = %q after auto, want the widest tier %q", Kernel(), widest)
	}
}

// TestKernelEnvNotHonouredIsReported: a MILRET_KERNEL value the process
// cannot honour — a name that is no tier, or a tier this host or build lacks
// — selects auto and says so, naming the value and the kernel running in its
// place; a value it can honour is applied without a word.
func TestKernelEnvNotHonouredIsReported(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)
	if err := SetKernel("auto"); err != nil {
		t.Fatal(err)
	}
	auto := Kernel()

	cases := []struct {
		mode     string
		honoured bool
		want     string // kernel selected
	}{
		{"", true, auto},
		{"auto", true, auto},
		{"scalar", true, "scalar"},
		{"scaler", false, auto},
		{"AVX2", false, auto},
		{"avx2", kernelAVX2Available(), "avx2"},
		{"avx512", kernelAVX512Available(), "avx512"},
	}
	for _, tc := range cases {
		if !tc.honoured {
			tc.want = auto
		}
		// Start from a tier the case does not ask for, so a selection that
		// silently did nothing is seen.
		if err := SetKernel("scalar"); err != nil {
			t.Fatal(err)
		}
		if tc.want == "scalar" && auto != "scalar" {
			if err := SetKernel(auto); err != nil {
				t.Fatal(err)
			}
		}
		var warn strings.Builder
		initKernel(tc.mode, &warn)
		if Kernel() != tc.want {
			t.Errorf("MILRET_KERNEL=%q selected %q, want %q", tc.mode, Kernel(), tc.want)
		}
		msg := warn.String()
		if tc.honoured {
			if msg != "" {
				t.Errorf("MILRET_KERNEL=%q was honoured but reported: %q", tc.mode, msg)
			}
			continue
		}
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, strconv.Quote(tc.mode)) ||
			!strings.Contains(msg, "using the "+auto+" kernel") {
			t.Errorf("MILRET_KERNEL=%q not honoured; stderr must name the value and the %s kernel once, got %q", tc.mode, auto, msg)
		}
	}
}

// tierInput is one input of the table: a length dim (0–140), a count n each
// row reduces to its range, variant bits flags and scalar arguments s. Its
// values are vals, then more(i) appended as value i; each run reads a copy.
type tierInput struct {
	dim, n int
	flags  uint8
	s      [3]float64
	vals   *[]float64
	more   func(i int) float64
	at     int
}

// read returns a copy of the next k values.
func (in *tierInput) read(k int) []float64 {
	for len(*in.vals) < in.at+k {
		*in.vals = append(*in.vals, in.more(len(*in.vals)))
	}
	in.at += k
	return append([]float64(nil), (*in.vals)[in.at-k:in.at]...)
}

// fence holds the checks of the guard values one run put around its buffers.
type fence []func() bool

const guardN, guardVal = 8, -12345.678

// fenced returns a copy of v with guardN guard values on either side, whose
// check it adds to f. nil stays nil, an argument form of GradAccumRows.
func fenced[T float32 | float64](f *fence, v []T) []T {
	if v == nil {
		return nil
	}
	g := slices.Repeat([]T{guardVal}, guardN)
	buf := slices.Concat(g, v, g)
	*f = append(*f, func() bool { return slices.Equal(buf[:guardN], g) && slices.Equal(buf[len(buf)-guardN:], g) })
	return buf[guardN : guardN+len(v) : guardN+len(v)]
}

// tierKernel is a row of the table. run calls the entry point on the active
// tier, every buffer fenced by f, and returns its outputs; ref returns the
// reference outputs, by default run's on the scalar tier. agree, when set,
// replaces bit identity: it adds a contract or allows an order-free sum.
type tierKernel struct {
	name  string
	run   func(in tierInput, f *fence) []float64
	ref   func(in tierInput) []float64
	agree func(in tierInput, want, got []float64) string
}

// tierKernels is the table's kernel axis. A fuzz corpus file names its row
// by index: append rows, never reorder them.
var tierKernels = []tierKernel{
	{name: "WeightedSqDistBlocked", run: func(in tierInput, f *fence) []float64 {
		p, w, rows, _, _, _ := scanArgs(in)
		out := make([]float64, 1+in.n%6)
		for r := range out {
			out[r] = WeightedSqDistBlocked(fenced(f, p), fenced(f, rows[r*in.dim:(r+1)*in.dim]), fenced(f, w))
		}
		return out
	}},
	{name: "MinWeightedSqDistRows", run: func(in tierInput, f *fence) []float64 {
		p, w, rows, thrs, _, _ := scanArgs(in)
		p, w, u, rows := fenced(f, p), fenced(f, w), fenced(f, rows[:in.dim]), fenced(f, rows)
		out := []float64{MinWeightedSqDistRows(p, w, rows, math.Inf(1), false)}
		for _, thr := range thrs {
			out = append(out, MinWeightedSqDistRows(p, w, u, thr, true), MinWeightedSqDistRows(p, w, rows, thr, true))
		}
		return out
	}, agree: minRowsAgree},
	{name: "BoxBoundExceeds", run: func(in tierInput, f *fence) []float64 {
		p, w, _, box, thrs := boxArgs(in)
		p, w, box = fenced(f, p), fenced(f, w), fenced(f, box)
		out := make([]float64, len(thrs))
		for i, thr := range thrs {
			if BoxBoundExceeds(p, w, box, thr) {
				out[i] = 1
			}
		}
		return out
	}, agree: boxSound},
	{name: "PackBagSketch", run: func(in tierInput, f *fence) (out []float64) {
		dim := max(in.dim, 1)
		rows := fenced(f, plantColumns(in.read((1+in.n%10)*dim), dim, in.flags&1 != 0))
		for _, bd := range []int{dim, min(dim, 64), dim / 2} {
			box := fenced(f, make([]float32, BoxStride*bd))
			PackBagSketch(dim, rows, box)
			// The same box as lane n%8 of a tile.
			tile := fenced(f, make([]float32, BoxTileStride*bd))
			PackBagSketchLane(dim, rows, tile, in.n%TileRows)
			for _, b := range slices.Concat(box, tile) {
				out = append(out, float64(b))
			}
		}
		return out
	}},
	{name: "WeightedSqDistTiles", run: func(in tierInput, f *fence) []float64 {
		p, w, rows, dim := tileArgs(&in)
		tiles, lanes := tileRows(rows, dim, 0)
		out := fenced(f, make([]float64, lanes))
		WeightedSqDistTiles(fenced(f, p), fenced(f, w), fenced(f, tiles), out)
		return out
	}, ref: func(in tierInput) []float64 {
		// Every lane, padding included, has WeightedSqDistBlocked's bits.
		p, w, rows, dim := tileArgs(&in)
		want := make([]float64, len(rows)/dim)
		for r := range want {
			want[r] = weightedSqDistScalar(p, rows[r*dim:(r+1)*dim], w)
		}
		return want
	}},
	{name: "GradAccumRows", run: func(in tierInput, f *fence) []float64 {
		dim, nr := in.dim, in.n%49
		gt, t, a, gw, b := in.read(dim), in.read(dim), in.read(dim), in.read(dim), in.read(dim)
		rows, coefs := in.read(nr*dim), in.read(nr)
		for r := range coefs {
			if in.flags>>(1+r%7)&1 != 0 {
				coefs[r] = math.Copysign(0, float64(1-2*(r%2))) // a row the kernel skips
			}
		}
		// flags bit 0 keeps gw; sw = s[0] = 1, the direct-weight form, drops b.
		if in.flags&1 == 0 {
			gw = nil
		} else if in.s[0] == 1 {
			b = nil
		}
		gt, gw = fenced(f, gt), fenced(f, gw)
		GradAccumRows(gt, gw, fenced(f, t), fenced(f, a), fenced(f, b), fenced(f, rows), fenced(f, coefs), 2, in.s[0])
		return append(gt, gw...)
	}},
	lanewise("ExpNeg", func(in tierInput, x, _ []float64, o [][]float64) { ExpNeg(x, in.s[0], o[0]) },
		func(in tierInput, d, _ float64) float64 { return math.Exp(-d - in.s[0]) }),
	lanewise("ExpNegClamped", func(_ tierInput, x, _ []float64, o [][]float64) { ExpNegClamped(x, pMax, o[0], o[1]) },
		func(_ tierInput, d, _ float64) float64 { return min(math.Exp(-d), pMax) }, func(_ tierInput, _, q float64) float64 { return q }),
	lanewise("Log", func(_ tierInput, x, _ []float64, o [][]float64) { Log(x, o[0]) },
		func(_ tierInput, x, _ float64) float64 { return math.Log(x) }),
	lanewise("LeaveOneOutRatios", func(in tierInput, p, q []float64, o [][]float64) { LeaveOneOutRatios(p, q, in.s[1], in.s[2], o[0]) },
		func(in tierInput, p, q float64) float64 { return p * (in.s[1] / q) / in.s[2] }),
	lanewise("NegRatios", func(_ tierInput, p, q []float64, o [][]float64) { NegRatios(p, q, o[0]) },
		func(_ tierInput, p, q float64) float64 { return -p / q }),
	clipRow("ClipSum", nil, func(x []float64, s, lo, hi float64) []float64 {
		sum, least := ClipSum(x, s, lo, hi)
		return []float64{sum, least}
	}),
	clipRow("ClipSumFree", clipFreeAgree, func(x []float64, s, lo, hi float64) []float64 {
		sum, free := ClipSumFree(x, s, lo, hi)
		return []float64{sum, float64(free)}
	}),
	clipRow("Clip", nil, func(x []float64, _, lo, hi float64) []float64 { Clip(x, lo, hi); return x }),
	clipRow("ClipShift", nil, func(x []float64, s, lo, hi float64) []float64 { ClipShift(x, s, lo, hi); return x }),
	{name: "BoxTileExceeds", run: func(in tierInput, f *fence) []float64 {
		p, w, tile, _, done, thrs := boxTileArgs(in)
		p, w, tile = fenced(f, p), fenced(f, w), fenced(f, tile)
		out := make([]float64, len(thrs))
		for i, thr := range thrs {
			out[i] = float64(BoxTileExceeds(p, w, tile, thr, done))
		}
		return out
	}, ref: func(in tierInput) []float64 {
		// Every lane not in done is the oracle on its own box, over the
		// tile's dimensions.
		p, w, _, boxes, done, thrs := boxTileArgs(in)
		bd := len(boxes[0]) / BoxStride
		out := make([]float64, len(thrs))
		for i, thr := range thrs {
			m := done
			for r, box := range boxes {
				if done>>r&1 == 0 && boxBoundScalar(p[:bd], w[:bd], box, thr) > thr {
					m |= 1 << r
				}
			}
			out[i] = float64(m)
		}
		return out
	}},
}

// checkTiers runs k on the scalar tier and on tiers, and describes each
// one's first departure from the reference, "" where there is none.
func checkTiers(k tierKernel, tiers []string, in tierInput) (msgs []string) {
	var want []float64
	if k.ref != nil {
		want = k.ref(in)
	}
	for i, tier := range append([]string{"scalar"}, tiers...) {
		var got []float64
		var f fence
		withTier(tier, func() { got = k.run(in, &f) })
		if k.ref == nil && i == 0 {
			want = got // the scalar run is the reference; agree and the guards still judge it
		}
		msg := diff(got, want)
		if k.agree != nil {
			msg = k.agree(in, want, got)
		}
		if slices.ContainsFunc(f, func(intact func() bool) bool { return !intact() }) {
			msg = "a guard value changed: a store outside [0, n)"
		}
		msgs = append(msgs, msg)
	}
	return msgs
}

// diff describes the first output whose bits differ from the reference.
func diff(got, want []float64) string {
	for i := range want {
		if !eqBits(got[i], want[i]) {
			return fmt.Sprintf("output %d of %d: %v (%#x), reference %v (%#x)", i, len(want), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// scanArgs reads a point, weights and 1–6 rows, and returns row 0's
// distance full, the least row distance and the thresholds on row 0's
// partial sums and at the least distance. flags bit 0 makes the weights
// non-negative, as where a scan prunes; bit 1 repeats row 0 last, a tie
// with the running minimum.
func scanArgs(in tierInput) (p, w, rows, thrs []float64, full, least float64) {
	p, w, rows = in.read(in.dim), in.read(in.dim), in.read((1+in.n%6)*in.dim)
	if in.flags&1 != 0 {
		for i := range w {
			w[i] = math.Abs(w[i])
		}
	}
	if in.flags&2 != 0 {
		copy(rows[len(rows)-in.dim:], rows)
	}
	full, least = math.Inf(1), math.Inf(1) // zero-dimensional rows are no rows
	for o := len(rows) - in.dim; o >= 0 && in.dim > 0; o -= in.dim {
		if full = weightedSqDistScalar(p, rows[o:o+in.dim], w); full < least { // row 0's last
			least = full
		}
	}
	return p, w, rows, ties(in, func(k int) float64 { return weightedSqDistScalar(p[:k], rows[:k], w[:k]) }, least), full, least
}

// ties returns abandon thresholds: ±Inf, NaN, 0, s[0], s[1], and, each
// with the float64s on either side since a tie must survive the strict >,
// the values at and the oracle's partial sum sum(k) at about every eighth
// block boundary k, the last one and dim.
func ties(in tierInput, sum func(k int) float64, at ...float64) []float64 {
	thrs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, in.s[0], in.s[1]}
	blocks := in.dim / KernelBlock
	for b := 1; b <= blocks; b += max(1, blocks/7) {
		at = append(at, sum(b*KernelBlock))
	}
	for _, s := range append(at, sum(blocks*KernelBlock), sum(in.dim)) {
		thrs = append(thrs, s, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1)))
	}
	return thrs
}

// minRowsAgree holds the scan row to the pruned scans' contract on the row
// distances d: unpruned, the least d below +Inf; the one-row scan at
// threshold thr, row 0's d or +Inf, and with non-negative weights +Inf only
// for d > thr; under cutoff thr, with non-negative weights, a least d ≤ thr
// exactly and any other result above thr.
func minRowsAgree(in tierInput, want, got []float64) string {
	_, _, _, thrs, full, least := scanArgs(in)
	nonNeg := in.flags&1 != 0
	for i, thr := range thrs {
		one, some := got[1+2*i], got[2+2*i]
		switch {
		case !eqBits(got[0], least):
			return fmt.Sprintf("unpruned scan %v, least row distance %v", got[0], least)
		case !eqBits(one, full) && !(math.IsInf(one, 1) && (!nonNeg || !(full <= thr))):
			return fmt.Sprintf("one-row scan at %v: %v, row distance %v", thr, one, full)
		case nonNeg && !(least > thr) && !eqBits(some, least), nonNeg && least > thr && !(some > thr):
			return fmt.Sprintf("scan under cutoff %v: %v, least row distance %v", thr, some, least)
		}
	}
	return diff(got, want)
}

// boxArgs reads a point, weights — squared, as a scan arms the screen on
// non-negative ones only, unless flags bit 2 is set — and 1–5 rows, and
// returns their sketch (or with flags bit 3 raw values: NaN bounds,
// inverted lo/hi) and its thresholds.
func boxArgs(in tierInput) (p, w, rows []float64, box []float32, thrs []float64) {
	p, w, rows = in.read(in.dim), in.read(in.dim), in.read((1+in.n%5)*in.dim)
	if in.flags&4 == 0 {
		for i := range w {
			w[i] *= w[i] // NaN stays NaN
		}
	}
	box = make([]float32, BoxStride*in.dim)
	if in.flags&8 != 0 {
		for i, v := range in.read(len(box)) {
			box[i] = float32(v)
		}
	} else if in.dim > 0 {
		packBagSketchScalar(in.dim, rows, boxSketch(box, in.dim))
	}
	return p, w, rows, box, ties(in, func(k int) float64 { return boxBoundScalar(p[:k], w[:k], box[:BoxStride*k], math.Inf(1)) })
}

// boxSound holds the box row to the soundness the pruned scan rests on.
// With non-negative weights the partial sums only grow, so the screen
// rejects exactly when the full bound exceeds thr (a NaN bound, from NaN
// weights, is exempt); on a packed box the bound never exceeds the bag's
// exact distance, so no rejection contradicts it.
func boxSound(in tierInput, want, got []float64) string {
	p, w, rows, box, thrs := boxArgs(in)
	bound, exact := boxBoundScalar(p, w, box, math.Inf(1)), math.Inf(1)
	for o := 0; o < len(rows); o += in.dim {
		exact = min(exact, weightedSqDistScalar(rows[o:o+in.dim], p, w)) // NaN sticks
	}
	packed := in.flags&12 == 0 && !math.IsNaN(exact)
	for i, thr := range thrs {
		switch rejected := got[i] == 1; {
		case in.flags&4 != 0:
		case packed && bound > exact:
			return fmt.Sprintf("box bound %v above the exact distance %v", bound, exact)
		case !math.IsNaN(bound) && rejected != (bound > thr), rejected && packed && exact <= thr:
			return fmt.Sprintf("BoxBoundExceeds(%v) = %v; full bound %v, exact distance %v", thr, rejected, bound, exact)
		}
	}
	return diff(got, want)
}

// boxTileArgs reads a point and weights — squared unless flags bit 2 is
// set, every third zeroed with bit 4 — and the TileRows lane boxes of a
// tile over the leading dim, min(dim, 64) or dim/2 dimensions. Lane r packs
// 1–5 rows, whose last box dimension holds 1e308 (past float32: a box of
// [MaxFloat32, +Inf]) for r%3 == 0 under bit 6, or with bit 3 takes raw
// values for odd r. done sets the padding lanes past 1 + n%8 and, with
// bit 5, some lanes inside; those hold raw values, NaN included. The
// thresholds are ties on every unset lane's partial sums.
func boxTileArgs(in tierInput) (p, w []float64, tile []float32, boxes [][]float32, done uint8, thrs []float64) {
	p, w = in.read(in.dim), in.read(in.dim)
	for i := range w {
		if in.flags&4 == 0 {
			w[i] *= w[i] // NaN stays NaN
		}
		if in.flags&16 != 0 && i%3 == 0 {
			w[i] = 0
		}
	}
	bd := []int{in.dim, min(in.dim, 64), in.dim / 2}[int(in.flags)%3]
	done = 0xFF << (1 + in.n%8)
	if in.flags&32 != 0 {
		done |= uint8(in.n>>3) & 0x5A
	}
	tile = make([]float32, BoxTileStride*bd)
	boxes = make([][]float32, TileRows)
	for r := range boxes {
		boxes[r] = make([]float32, BoxStride*bd)
		rows := in.read((1 + (in.n+r)%5) * in.dim)
		switch {
		case done>>r&1 != 0, in.flags&8 != 0 && r%2 == 1:
			for i := range boxes[r] {
				boxes[r][i] = float32(in.read(1)[0])
			}
		case bd > 0:
			if in.flags&64 != 0 && r%3 == 0 {
				for o := bd - 1; o < len(rows); o += in.dim {
					rows[o] = 1e308
				}
			}
			packBagSketchScalar(in.dim, rows, boxSketch(boxes[r], in.dim))
		}
		setBoxTileLane(tile, r, boxes[r])
		if done>>r&1 == 0 {
			box := boxes[r]
			thrs = append(thrs, ties(in, func(k int) float64 {
				k = min(k, bd)
				return boxBoundScalar(p[:k], w[:k], box[:BoxStride*k], math.Inf(1))
			})...)
		}
	}
	return p, w, tile, boxes, done, thrs
}

// setBoxTileLane stores box (lo/hi interleaved) as lane r of tile: for
// dimension k, lo at k·BoxTileStride + r and hi TileRows further on.
func setBoxTileLane(tile []float32, r int, box []float32) {
	for k := 0; k < len(box)/BoxStride; k++ {
		tile[k*BoxTileStride+r] = box[BoxStride*k]
		tile[k*BoxTileStride+TileRows+r] = box[BoxStride*k+1]
	}
}

// plantColumns, when plant is set, writes the columns where the sketch's
// compare order and NaN widening show: +0 before −0 and −0 before +0, all
// zeros, +Inf, −Inf, both infinities (a NaN sum that is not widened), and a
// NaN in the first row and in the last.
func plantColumns(rows []float64, dim int, plant bool) []float64 {
	n, negZero, inf := len(rows)/dim, math.Copysign(0, -1), math.Inf(1)
	for j, vals := range [][]float64{{0, negZero, 1}, {negZero, 0, 1}, {negZero, 0}, {inf, 1}, {-inf, 1}, {inf, -inf, 2}} {
		for r := 0; r < n && plant; r++ {
			rows[r*dim+j*dim/6] = vals[r%len(vals)]
		}
	}
	if plant {
		rows[dim/3], rows[(n-1)*dim+2*dim/3] = math.NaN(), math.NaN()
	}
	return rows
}

// tileArgs reads a point, weights and 0–48 rows — up to six tiles — and
// pads the rows to whole tiles with 0, NaN or −Inf.
func tileArgs(in *tierInput) (p, w, rows []float64, dim int) {
	dim = max(in.dim, 1)
	p, w, rows = in.read(dim), in.read(dim), in.read(in.n%49*dim)
	pad := NewVector(TileLanes(len(rows)/dim)*dim - len(rows)).Fill([]float64{0, math.NaN(), math.Inf(-1)}[in.flags%3])
	return p, w, append(rows, pad...), dim
}

// pMax is the noisy-or's clamp on an instance probability.
const pMax = 1 - 1e-10

// lanewise builds a likelihood row: k writes output i, whose reference is
// stmts[i] on each element of x and of q = 1 − p, p the clamped probability
// math.Exp(−x); it runs out of place and then in place, output 0 aliasing x.
func lanewise(name string, k func(in tierInput, x, q []float64, o [][]float64), stmts ...func(in tierInput, x, q float64) float64) tierKernel {
	args := func(in *tierInput) (x, q []float64) {
		x = in.read(in.dim)
		for _, v := range x {
			q = append(q, 1-min(math.Exp(-v), pMax)) // NaN stays NaN
		}
		return x, q
	}
	return tierKernel{name: name, run: func(in tierInput, f *fence) (out []float64) {
		x, q := args(&in)
		for _, inPlace := range []bool{false, true} {
			xi, o := fenced(f, x), make([][]float64, len(stmts))
			for i := range o {
				o[i] = fenced(f, make([]float64, len(x)))
			}
			if inPlace {
				o[0] = xi
			}
			k(in, xi, fenced(f, q), o)
			for _, oi := range o {
				out = append(out, oi...)
			}
		}
		return out
	}, ref: func(in tierInput) (out []float64) {
		x, q := args(&in)
		for range 2 {
			for _, stmt := range stmts {
				for j := range x {
					out = append(out, stmt(in, x[j], q[j]))
				}
			}
		}
		return out
	}}
}

// clipBoxes are the clip rows' boxes: the trainer's [0, 1], boxes across and
// below zero, one of subnormal width, a point, both orders of the signed
// zeros, and one nearly as wide as the doubles.
var clipBoxes = [][2]float64{
	{0, 1}, {-2, 3}, {-0.25, 0}, {-1, -0.5}, {0, 0x1p-1070}, {0.5, 0.5},
	{math.Copysign(0, -1), 0}, {0, math.Copysign(0, -1)}, {-1e300, 1e300},
}

// clipRow builds a clip row: k runs on a fresh fenced copy of clipArgs'
// coordinates for each of its shifts.
func clipRow(name string, agree func(in tierInput, want, got []float64) string, k func(x []float64, shift, lo, hi float64) []float64) tierKernel {
	return tierKernel{name: name, agree: agree, run: func(in tierInput, f *fence) (out []float64) {
		x, lo, hi, shifts := clipArgs(in)
		for _, s := range shifts {
			out = append(out, k(fenced(f, x), s, lo, hi)...)
		}
		return out
	}}
}

// clipArgs reads the coordinates for box clipBoxes[flags % 9], every fifth
// a face or a face's neighbour, and returns the shifts to try: s[0], both
// zeros, ones that clip every finite coordinate to lo or to hi, ±Inf, NaN.
func clipArgs(in tierInput) (x []float64, lo, hi float64, shifts []float64) {
	box := clipBoxes[int(in.flags)%len(clipBoxes)]
	lo, hi, x = box[0], box[1], in.read(in.dim)
	faces := []float64{lo, hi, math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)), math.Nextafter(lo, math.Inf(1))}
	far := hi - lo
	for i, v := range x {
		if i%5 == in.n%5 {
			x[i] = faces[i%len(faces)]
		} else if !math.IsInf(v, 0) && !math.IsNaN(v) {
			far = max(far, 2*math.Abs(v)+(hi-lo))
		}
	}
	return x, lo, hi, []float64{in.s[0], 0, math.Copysign(0, -1), far, -far, math.Inf(1), math.Inf(-1), math.NaN()}
}

// clipFreeAgree judges the order-free pass where x and x + shift are finite:
// the scalar loop's free count, and its sum to within n roundings of
// Σ|clipped|, which bounds every partial sum — exactly once either is
// infinite. Elsewhere only the exact passes have a contract.
func clipFreeAgree(in tierInput, want, got []float64) string {
	x, lo, hi, shifts := clipArgs(in)
	for i, s := range shifts {
		var bound float64
		for _, v := range x {
			bound += math.Abs(clip(v+s, lo, hi)) + 0*v // NaN for a non-finite v or v + s
		}
		exact := math.IsInf(bound, 0) || math.IsInf(want[2*i], 0)
		ok := eqBits(got[2*i], want[2*i]) || !exact && math.Abs(got[2*i]-want[2*i]) <= float64(len(x))*0x1p-52*bound
		if !math.IsNaN(bound) && (!ok || got[2*i+1] != want[2*i+1]) {
			return fmt.Sprintf("shift %v on [%v, %v]: sum %v, %v free; scalar %v, %v", s, lo, hi, got[2*i], got[2*i+1], want[2*i], want[2*i+1])
		}
	}
	return ""
}

// tierClasses is the table's input-class axis, each class run over every
// stride-th dim: ordinary values; the objective's domain (distances to past
// exp's underflow, probabilities and complements in [1e−10, 1]); either of
// those with about one special value in 2·dim — few enough that most sums
// stay finite, since a NaN or ±Inf sum hides a change in the order of its
// adds; the inputs at which math.Exp and math.Log change branch; and any
// float64 bit pattern.
var tierClasses = []struct {
	name     string
	stride   int
	specials []float64
}{
	{"ordinary", 1, nil}, {"domain", 1, nil},
	{"NaN", 2, []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001)}},
	{"±0", 2, []float64{0, math.Copysign(0, -1)}},
	{"±Inf and huge", 2, []float64{math.Inf(1), math.Inf(-1), 1e300, -math.MaxFloat64}},
	{"subnormal", 2, []float64{5e-324, -5e-324, 0x1p-1070, -0x1p-1040, math.Nextafter(0x1p-1022, 0), 1e-310}},
	{"edges", 3, nil}, {"bits", 3, nil},
}

// likelihoodEdges are the inputs at which math.Exp and math.Log change
// branch or regime: ±0, subnormals, the extremes, both sides of exp's
// overflow (709.78) and of the ends of its normal results (−708.40, and
// −745.13 where it reaches zero), log's √2/2 comparison, 1 − 1e−10 (the
// noisy-or's pMax), NaN and ±Inf.
var likelihoodEdges = func() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 2,
		709.782712893384, 709.7827128933841, 709.78, 709.79, 708, 710,
		-708.39, -708.3964185322641, -708.4, -708.5, -709, -744, -745.1332191019411, -745.2, -746,
		math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 2), math.Sqrt2, math.Sqrt2 / 4,
		1 - 1e-10, 1e-10, 1e-300, 36.7, 36.8, 30, -30, 1e9, -1e9, 1e10, -1e10,
		math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
	}
	// Around every edge by an ulp, and each edge's negation: ExpNeg and
	// ExpNegClamped take −d.
	for _, x := range edges[:len(edges)-4] {
		edges = append(edges, -x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	// Every x whose Frexp fraction is exactly √2/2, where log_amd64.s's
	// "f1 < √2/2" is in fact ≤.
	for e := -1074; e <= 1024; e++ {
		edges = append(edges, math.Ldexp(math.Sqrt2/2, e))
	}
	return edges
}()

// tierValue is value i of class c's run over one row.
func tierValue(r *rand.Rand, c, i, dim int) float64 {
	switch class := tierClasses[c]; {
	case class.name == "edges":
		return likelihoodEdges[i%len(likelihoodEdges)]
	case class.name == "bits":
		return math.Float64frombits(r.Uint64())
	case class.specials != nil && r.Intn(2*max(dim, 1)) == 0:
		return class.specials[r.Intn(len(class.specials))]
	case class.name == "ordinary" || class.name != "domain" && i%2 == 0:
		return r.NormFloat64()
	}
	return domainValue(r)
}

// domainValue draws an input of the objective's domain.
func domainValue(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return r.ExpFloat64() * 40
	case 1:
		return r.Float64() * 800
	case 2:
		return 1 - r.Float64()*(1-1e-10)
	}
	return math.Exp(-r.Float64() * 40)
}

// TestKernelTiers is the table: kernel × input class × dim 0–140, every
// tier the host has checked against the reference on each input, and the
// first departure of each tier and kernel reported as the subtest
// <tier>/<kernel>. One pass runs all tiers on an input, so the inputs and
// the references are built once. A tier the host lacks is a skipped
// subtest, and the log says which tiers ran, so a CI run records what it
// covered.
func TestKernelTiers(t *testing.T) {
	run, missing := simdTiers()
	t.Logf("mat.Kernel() = %q, haveFMA = %v; tiers exercised here: scalar %v;%s", Kernel(), haveFMA, run, missing)
	tiers, failed := append([]string{"scalar"}, run...), map[[2]string]string{}
	for ki, k := range tierKernels {
		for ci, c := range tierClasses {
			r, seen := rand.New(rand.NewSource(int64(100*ki+ci))), 0
			for dim := ci % c.stride; dim <= 140; dim += c.stride {
				var vals []float64
				s0 := []float64{tierValue(r, ci, seen, dim), 1, 2, -30 - 20*r.Float64(), 0, math.NaN(), 30, 1e-300}[dim%8]
				in := tierInput{dim: dim, n: r.Intn(256), flags: uint8(r.Intn(256)),
					s:    [3]float64{s0, r.Float64(), []float64{r.Float64(), 1e-300}[dim%2]},
					vals: &vals, more: func(i int) float64 { return tierValue(r, ci, seen+i, dim) }}
				for i, msg := range checkTiers(k, run, in) {
					if cell := [2]string{tiers[i], k.name}; msg != "" && failed[cell] == "" {
						failed[cell] = fmt.Sprintf("%s values, dim %d, n %d, flags %#x, s %v: %s", c.name, dim, in.n, in.flags, in.s, msg)
					}
				}
				seen += len(vals)
			}
		}
	}
	reported := 0
	for _, tier := range append([]simdTier{{"scalar", true}}, allSIMDTiers()...) {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.ok {
				t.Skipf("no %s on this host (or a purego build)", tier.name)
			}
			for _, k := range tierKernels {
				t.Run(k.name, func(t *testing.T) {
					if msg := failed[[2]string{tier.name, k.name}]; msg != "" {
						reported++
						t.Fatal(msg)
					}
				})
			}
		})
	}
	// A -run filter skips subtests, not the pass above: a departure in a
	// cell it filtered out still fails the test.
	if reported < len(failed) {
		t.Errorf("%d of %d failing cells were filtered out of this run: %v", len(failed)-reported, len(failed), failed)
	}
}

// FuzzKernelTiers feeds the table's rows raw bytes: kernel selects the row,
// data are float64 bits — every payload, sign and exponent — and dim, n,
// flags and s are the input's fields. Past the data the values cycle
// through small integers, exact and tie-prone.
func FuzzKernelTiers(f *testing.F) {
	for k := range tierKernels {
		f.Add(uint8(k), uint8(3+9*k), uint8(k), uint8(k), []byte("\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf8\x7f"), 1.0, 0.25, 0.75)
	}
	f.Fuzz(func(t *testing.T, kernel, dim, n, flags uint8, data []byte, s0, s1, s2 float64) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		run, _ := simdTiers()
		tiers := append([]string{"scalar"}, run...)
		k := tierKernels[int(kernel)%len(tierKernels)]
		in := tierInput{dim: int(dim) % 141, n: int(n), flags: flags, s: [3]float64{s0, s1, s2},
			vals: &vals, more: func(i int) float64 { return float64(i%7) - 3 }}
		for i, msg := range checkTiers(k, run, in) {
			if msg != "" {
				t.Fatalf("%s on %s: %s", k.name, tiers[i], msg)
			}
		}
	})
}
