// Runtime kernel dispatch: which implementation the public kernel entry
// points in kernel.go, sketch.go, grad.go, likelihood.go and clip.go route
// to.
//
// There are three tiers, each a superset of the one below:
//
//   - "scalar": the portable loops, the oracle every other tier must match;
//   - "avx2": the AVX2 assembly for every kernel (kernel_amd64.s,
//     grad_amd64.s, likelihood_amd64.s, clip_amd64.s);
//   - "avx512": AVX-512 bodies for the kernels that run a lane per row or
//     per bag — the tiled distance pass and the gradient accumulation of
//     grad.go, the likelihood kernels of likelihood.go, the box-tile screen
//     of sketch.go — with the row-major scan kernels staying on their AVX2
//     bodies: a scan abandons most rows after one 4-dimension block, which
//     a wider register does not shorten. The projection passes of clip.go
//     stay on theirs too.
//
// The default is picked once at init: the widest tier the CPU and OS support
// (amd64, detected via CPUID/XGETBV — see kernel_dispatch_amd64.go), scalar
// otherwise. Two escape hatches narrow it:
//
//   - build tag: `-tags purego` compiles no assembly at all, so the scalar
//     kernel is the only implementation (kernel_noasm.go);
//   - environment: MILRET_KERNEL=auto|scalar|avx2|avx512 (read at init)
//     selects a tier at runtime; SetKernel is the same switch for the tests
//     that hold the implementations together. A value the process cannot
//     honour — a name that is none of the four, or a tier the host or build
//     lacks — falls back to auto and says so once on stderr.
//
// The likelihood's exp bodies also need FMA — they copy math.Exp's fused
// form, the one use of FMA in the package — and run only where math.Exp
// fuses (haveFMA, kernel_dispatch_amd64.go); elsewhere both tiers call
// math.Exp from the scalar loop.
//
// Because all implementations are bit-identical on every entry point (the
// property tests and the SIMD-vs-scalar fuzz targets enforce it), switching
// kernels never changes a ranking, a training trajectory, or a stored
// artifact — the hatches exist for debugging, benchmarking a narrower tier,
// and sidestepping a broken SIMD unit, not for correctness.
package mat

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// useAVX2 gates every AVX2 dispatch branch, useAVX512 the AVX-512
// branches, which are tested first. Atomic so tests and
// SetKernel can flip them without racing in-flight scans; on amd64 the load
// compiles to a plain MOV, so the hot entry points pay nothing. Each is only
// ever true when its kernel…Available reports support; the avx512 tier sets
// both, since it runs the scan kernels' AVX2 bodies.
var useAVX2, useAVX512 atomic.Bool

func init() { initKernel(os.Getenv("MILRET_KERNEL"), os.Stderr) }

// initKernel applies the MILRET_KERNEL value mode. A request that cannot be
// honoured cannot fail init — a missing instruction set is not forced into
// existence by exiting — so it selects auto instead, and tells the operator
// on warn which kernel is running in place of the one they named.
func initKernel(mode string, warn io.Writer) {
	if mode == "" {
		mode = "auto"
	}
	if err := SetKernel(mode); err != nil {
		_ = SetKernel("auto")
		fmt.Fprintf(warn, "milret: MILRET_KERNEL=%q ignored (%v); using the %s kernel\n", mode, err, Kernel())
	}
}

// Kernel reports which kernel tier is active: "avx512", "avx2" or "scalar".
func Kernel() string {
	switch {
	case useAVX512.Load():
		return "avx512"
	case useAVX2.Load():
		return "avx2"
	}
	return "scalar"
}

// SetKernel selects the kernel tier: "auto" (the widest the CPU supports),
// "scalar" (force the portable loops), or "avx2" / "avx512" (error when
// unsupported, leaving the selection as it was). The MILRET_KERNEL
// environment variable routes here at init; flipping it later is safe
// (atomic) but mid-scan switches waste the measurement, not the result,
// since all kernels return identical bits.
func SetKernel(mode string) error {
	avx2, avx512 := false, false
	switch mode {
	case "auto":
		avx2, avx512 = kernelAVX2Available(), kernelAVX512Available()
	case "scalar":
	case "avx2":
		if !kernelAVX2Available() {
			return fmt.Errorf("mat: avx2 kernel unavailable (no AVX2 CPU support, or a purego build)")
		}
		avx2 = true
	case "avx512":
		if !kernelAVX512Available() {
			return fmt.Errorf("mat: avx512 kernel unavailable (no AVX-512 CPU or OS support, or a purego build)")
		}
		avx2, avx512 = true, true
	default:
		return fmt.Errorf("mat: unknown kernel %q (want auto, scalar, avx2 or avx512)", mode)
	}
	useAVX2.Store(avx2)
	useAVX512.Store(avx512)
	return nil
}
