//go:build !amd64 || purego

package mat

// kernelAVX2Available, kernelAVX512Available: no assembly in this build
// (non-amd64 target or the purego tag), so the scalar loops are the only
// kernel and neither useAVX2 nor useAVX512 can become true.
func kernelAVX2Available() bool   { return false }
func kernelAVX512Available() bool { return false }

// haveFMA: with no exp bodies there is nothing for math.Exp's FMA form to
// gate.
const haveFMA = false

// The SIMD entry points referenced by the dispatch branches in kernel.go.
// Unreachable in this build — the dispatch flags are pinned false — so they panic
// loudly instead of silently falling back, which would hide a dispatch
// invariant violation.

func wsqAVX2(v, u, w *float64, n int) float64 {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func minRowsAVX2(p, w, rows *float64, dim, nRows int, cutoff float64, prune bool) float64 {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func boxTileAVX2(p, w *float64, tile *float32, dim int, thr float64, done uint8) uint8 {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func boxTileAVX512(p, w *float64, tile *float32, dim int, thr float64, done uint8) uint8 {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func sketchRowsAVX2(rows *float64, stride, nRows, nCols int, lo, hi, sum *float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func distTilesAVX2(p, w, tiles *float64, dim, nTiles int, out *float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func distTilesAVX512(p, w, tiles *float64, dim, nTiles int, out *float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func gradRowsAVX2(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func gradRowsAVX512(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func expNegAVX2(d, out *float64, n int, shift float64) int {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func expNegAVX512(d, out *float64, n int, shift float64) int {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func expNegClampedAVX2(d, p, q *float64, n int, pMax float64) int {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func expNegClampedAVX512(d, p, q *float64, n int, pMax float64) int {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func logAVX2(x, out *float64, n int) int {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func logAVX512(x, out *float64, n int) int {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func looRatiosAVX2(p, q, out *float64, n int, prod, P float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func looRatiosAVX512(p, q, out *float64, n int, prod, P float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func negRatiosAVX2(p, q, out *float64, n int) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func negRatiosAVX512(p, q, out *float64, n int) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func clipSumAVX2(x *float64, n int, shift, lo, hi float64) (float64, float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func clipSumFreeAVX2(x *float64, n int, shift, lo, hi float64) (float64, int) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func clipAVX2(x *float64, n int, lo, hi float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}

func clipShiftAVX2(x *float64, n int, shift, lo, hi float64) {
	panic("mat: SIMD kernel dispatched in a build without assembly")
}
