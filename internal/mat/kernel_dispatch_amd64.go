//go:build amd64 && !purego

package mat

import "math"

// CPU feature detection for the assembly kernels, probed once at init
// through raw CPUID/XGETBV (cpu feature asm in kernel_amd64.s — no external
// dependency). Using AVX2 safely needs three things:
//
//   - CPUID.1:ECX reports OSXSAVE (bit 27) and AVX (bit 28): the CPU has
//     the AVX state machinery and the OS exposed XGETBV;
//   - XCR0 bits 1 and 2: the OS actually saves/restores the XMM and YMM
//     halves across context switches (without this, executing VEX.256
//     instructions faults or corrupts state);
//   - CPUID.7.0:EBX bit 5: the AVX2 instruction set itself.
//
// AVX-512 needs all of that plus CPUID.7.0:EBX bit 16 (AVX512F, the only
// subset the bodies use) and XCR0 bits 5, 6 and 7: the OS saves the opmask
// registers, the upper halves of ZMM0–15 and ZMM16–31. An OS that enables
// that state lazily (Darwin) reports it off here and gets the AVX2 tier.
//
// haveFMA gates the likelihood kernels' exp bodies (likelihood.go), which
// fuse because math.Exp does — but only where math.Exp does. The standard
// library's predicate is cpu.X86.HasAVX && cpu.X86.HasFMA: the AVX state
// checks above plus CPUID.1:ECX bit 12 (FMA). That bit alone is not all of
// it: GODEBUG=cpu.fma=off (or cpu.avx=off) turns math's fused form off
// without touching CPUID, so the gate also asks math.Exp itself, on an
// input where the two forms round differently.
var haveAVX2, haveAVX512, haveFMA = detectSIMD()

// kernelAVX2Available and kernelAVX512Available report whether the assembly
// of that tier can run on this CPU. The purego / non-amd64 counterparts in
// kernel_noasm.go always report false.
func kernelAVX2Available() bool   { return haveAVX2 }
func kernelAVX512Available() bool { return haveAVX512 }

func detectSIMD() (avx2, avx512, fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false, false, false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state enabled
		return false, false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	const opmaskAndZMM = 1<<5 | 1<<6 | 1<<7
	avx512 = avx2 && ebx7&(1<<16) != 0 && xcr0&opmaskAndZMM == opmaskAndZMM
	fma = ecx1&(1<<12) != 0 && math.Float64bits(math.Exp(fmaProbe)) == fmaProbeFused
	return avx2, avx512, fma
}

// math.Exp(fmaProbe) is fmaProbeFused on its FMA path and one ulp above it
// on the unfused one (TestFMAGateMatchesMathExp finds such inputs afresh).
const (
	fmaProbe      = -0.050439
	fmaProbeFused = 0x3fee6d0d22155b93
)

// cpuid executes CPUID with the given leaf/subleaf (kernel_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable mask (kernel_amd64.s).
// Only call when CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() (eax, edx uint32)

// The assembly kernel loops (kernel_amd64.s, grad_amd64.s). Each is the
// exact instruction-level transcription of its scalar oracle — same block
// boundaries, same (s0,s1) strided fold, separate vmulpd/vaddpd with no
// FMA contraction, threshold (where the loop has one) compared after every
// block with the same NaN-false semantics — so results are bit-identical
// (see the package comment in kernel.go for the one NaN-payload caveat).
// Callers guarantee in-bounds, equal-length inputs; the pointers are to the
// first elements.

// wsqAVX2 is weightedSqDistScalar: the full blocked distance between two
// n-vectors, with no threshold — only the row scan and the box screen
// abandon. Requires n ≥ 1.
//
//go:noescape
func wsqAVX2(v, u, w *float64, n int) float64

// minRowsAVX2 is the MinWeightedSqDistRows row loop: the minimum blocked
// distance from p to any of nRows rows, abandoning each row against
// min(best so far, cutoff) when prune is set (+Inf otherwise). Requires
// dim ≥ 1 and nRows ≥ 1.
//
//go:noescape
func minRowsAVX2(p, w, rows *float64, dim, nRows int, cutoff float64, prune bool) float64

// boxTileAVX2 and boxTileAVX512 are BoxTileExceeds (kernel_amd64.s): the
// box screen of one tile, a bag per lane, each lane's running sum checked
// against thr after every block and the tail and its bit set for good once
// it exceeds; done seeds the set lanes and the loop stops when all are set.
// Require dim ≥ 1 and a tile of BoxTileStride*dim float32s.
//
//go:noescape
func boxTileAVX2(p, w *float64, tile *float32, dim int, thr float64, done uint8) uint8

//go:noescape
func boxTileAVX512(p, w *float64, tile *float32, dim int, thr float64, done uint8) uint8

// sketchRowsAVX2 is PackBagSketch's pass (sketch.go): over nRows rows of
// stride float64s, it folds each row's first nCols values into the running
// lo = min, hi = max and sum arrays, in row order, with the scalar loop's
// compare-and-select operand order. The caller initialises the three
// arrays. Requires nRows ≥ 1 and nCols ≥ 1.
//
//go:noescape
func sketchRowsAVX2(rows *float64, stride, nRows, nCols int, lo, hi, sum *float64)

// distTilesAVX2 and distTilesAVX512 are weightedSqDistTiles (grad_amd64.s):
// the full blocked distance from p to every row of nTiles tiles, a row per
// lane, stored to out. The AVX-512 body scores two tiles per pass over the
// dimensions, loading each block's p and w broadcasts once for both, and
// an odd last tile alone; a lane's statements do not depend on its
// neighbour tile, so pairing moves no bit. Require dim ≥ 1 and nTiles ≥ 1.
//
//go:noescape
func distTilesAVX2(p, w, tiles *float64, dim, nTiles int, out *float64)

//go:noescape
func distTilesAVX512(p, w, tiles *float64, dim, nTiles int, out *float64)

// gradRowsAVX2 and gradRowsAVX512 are gradAccumRows (grad_amd64.s): the
// chain-rule gradient accumulation over nRows rows, lane-wise with no
// cross-lane fold. Their loops run the other way round from the scalar
// oracle's — dimensions outer, rows inner — over groups of dimension blocks
// whose gt/gw accumulators stay in registers for the whole row loop (five
// 4-lane blocks per group for AVX2, six 8-lane blocks for AVX-512; the
// dimensions past the last group go one masked block per pass). Lane k
// still adds dimension k's terms in row order with the scalar association,
// so the order moves no bit. gw may be nil to accumulate the point part
// only, and b nil beside a gw for weights that enter directly. Require
// dim ≥ 1 and nRows ≥ 1.
//
//go:noescape
func gradRowsAVX2(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64)

//go:noescape
func gradRowsAVX512(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64)

// The likelihood kernels' bodies (likelihood_amd64.s), AVX2 and AVX-512,
// behind ExpNeg, ExpNegClamped, Log, LeaveOneOutRatios and NegRatios. The
// exp and log bodies return how many leading elements of n they stored: n,
// or the start of the first group of lanes one of which leaves math's
// straight-line path, which the caller computes with the scalar loop.
// Callers guarantee n ≥ 1 and n in-bounds elements behind every pointer.

//go:noescape
func expNegAVX2(d, out *float64, n int, shift float64) int

//go:noescape
func expNegAVX512(d, out *float64, n int, shift float64) int

//go:noescape
func expNegClampedAVX2(d, p, q *float64, n int, pMax float64) int

//go:noescape
func expNegClampedAVX512(d, p, q *float64, n int, pMax float64) int

//go:noescape
func logAVX2(x, out *float64, n int) int

//go:noescape
func logAVX512(x, out *float64, n int) int

//go:noescape
func looRatiosAVX2(p, q, out *float64, n int, prod, P float64)

//go:noescape
func looRatiosAVX512(p, q, out *float64, n int, prod, P float64)

//go:noescape
func negRatiosAVX2(p, q, out *float64, n int)

//go:noescape
func negRatiosAVX512(p, q, out *float64, n int)

// The projection passes' bodies (clip_amd64.s), behind ClipSum,
// ClipSumFree, Clip and ClipShift in clip.go. Callers guarantee n ≥ 1 and n
// in-bounds elements behind x.

//go:noescape
func clipSumAVX2(x *float64, n int, shift, lo, hi float64) (sum, least float64)

//go:noescape
func clipSumFreeAVX2(x *float64, n int, shift, lo, hi float64) (sum float64, free int)

//go:noescape
func clipAVX2(x *float64, n int, lo, hi float64)

//go:noescape
func clipShiftAVX2(x *float64, n int, shift, lo, hi float64)
