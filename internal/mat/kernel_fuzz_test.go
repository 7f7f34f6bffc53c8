package mat

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzKernelSIMDvsScalar differentially fuzzes the AVX2 kernel against the
// scalar oracle on every entry point. The raw byte stream is reinterpreted
// as float64 bits, so NaNs (all payloads), ±Inf, denormals and negative
// zeros arise naturally; dim and the vector count come from their own
// bytes so every tail size (dim % KernelBlock) and the one-block shapes
// get explored. The threshold is additionally snapped onto the oracle's
// own block-boundary partial sums on some inputs, probing the exact
// tie-survives boundary of the abandon check.
//
// Equivalence is eqBits: identical bits or both NaN (NaN payloads are the
// kernel contract's one allowed divergence — see kernel.go).
func FuzzKernelSIMDvsScalar(f *testing.F) {
	// Seeds: ordinary dims and values, a tail-only vector, a NaN/Inf mix,
	// a threshold exactly at a block sum, and a many-vector pruned scan.
	f.Add(uint8(8), uint8(3), mkBytes(1, 2, 3, 4, 5, 6, 7, 8), 10.0, 5.0, true, false)
	f.Add(uint8(3), uint8(1), mkBytes(0.5, -0.5, 2), math.Inf(1), 0.0, false, false)
	f.Add(uint8(5), uint8(2), mkBytes(math.NaN(), math.Inf(1), -1, 1e-300, 1e300), 1.0, 1.0, true, true)
	f.Add(uint8(4), uint8(1), mkBytes(1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3), 0.0, 0.0, true, true)
	f.Add(uint8(12), uint8(6), mkBytes(-1, -2, -3), 100.0, 2.5, true, false)

	f.Fuzz(func(t *testing.T, dimRaw, nRaw uint8, data []byte, thr, cutoff float64, prune, snapThr bool) {
		if !kernelAVX2Available() {
			t.Skip("no AVX2; nothing to differentiate")
		}
		dim := 1 + int(dimRaw)%21
		nVecs := 1 + int(nRaw)%6
		need := (2 + nVecs) * dim // p, w, then the vectors
		vals := floatsFromBytes(data, need)
		p, w := vals[:dim], vals[dim:2*dim]
		vecs := make([]Vector, nVecs)
		for i := range vecs {
			vecs[i] = Vector(vals[(2+i)*dim : (3+i)*dim])
		}
		if snapThr {
			// Abandon threshold exactly at a scalar block-boundary partial
			// sum: strict > means this tie must survive on both kernels.
			blocks := dim / KernelBlock
			if blocks > 0 {
				cut := ((int(nRaw) % blocks) + 1) * KernelBlock
				thr = weightedSqDistScalar(p[:cut], vecs[0][:cut], w[:cut])
			}
		}
		compareAllEntryPoints(t, p, w, vecs, thr, cutoff, prune)
	})
}

// floatsFromBytes decodes need float64s from the fuzzer's byte stream,
// cycling a deterministic pattern once the stream runs out.
func floatsFromBytes(data []byte, need int) []float64 {
	out := make([]float64, need)
	for i := range out {
		if off := i * 8; off+8 <= len(data) {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
		} else {
			out[i] = float64(i%7) - 3 // small integers: exact, tie-prone
		}
	}
	return out
}

// mkBytes packs float64 seed values into the fuzzer's byte-stream encoding.
func mkBytes(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}
