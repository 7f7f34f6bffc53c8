// Runtime kernel dispatch: which implementation of the blocked distance
// kernel the public entry points in kernel.go route to.
//
// The default is picked once at init: the AVX2 assembly when the CPU
// supports it (amd64, AVX2 + OS ymm-state support, detected via CPUID — see
// kernel_dispatch_amd64.go), the portable scalar loops otherwise. Two
// escape hatches force the scalar path:
//
//   - build tag: `-tags purego` compiles no assembly at all, so the scalar
//     kernel is the only implementation (kernel_noasm.go);
//   - environment: MILRET_KERNEL=scalar (read at init) switches a normal
//     build back to the scalar loops at runtime; SetKernel is the same
//     switch for the tests that hold the two implementations together.
//
// Because both implementations are bit-identical on every entry point (the
// property tests and FuzzKernelSIMDvsScalar enforce it), switching kernels
// never changes a ranking, a training trajectory, or a stored artifact —
// the hatches exist for debugging, benchmarking the scalar baseline, and
// sidestepping a broken SIMD unit, not for correctness.
package mat

import (
	"fmt"
	"os"
	"sync/atomic"
)

// useAVX2 gates every SIMD dispatch branch in kernel.go. Atomic so tests
// and SetKernel can flip it without racing in-flight scans; on amd64 the
// load compiles to a plain MOV, so the hot entry points pay nothing.
// It is only ever true when kernelAVX2Available reports support.
var useAVX2 atomic.Bool

func init() {
	mode := os.Getenv("MILRET_KERNEL")
	if mode == "" {
		mode = "auto"
	}
	if err := SetKernel(mode); err != nil {
		// An explicit avx2 request on a host without AVX2, or a typo: the
		// missing instruction set cannot be forced into existence, so fall
		// back to automatic selection rather than failing init.
		_ = SetKernel("auto")
	}
}

// Kernel reports which distance-kernel implementation is active: "avx2" or
// "scalar".
func Kernel() string {
	if useAVX2.Load() {
		return "avx2"
	}
	return "scalar"
}

// SetKernel selects the kernel implementation: "auto" (AVX2 when the CPU
// supports it), "scalar" (force the portable loops), or "avx2" (error when
// unsupported). The MILRET_KERNEL environment variable routes here at init;
// flipping it later is safe (atomic) but mid-scan switches waste the
// measurement, not the result, since both kernels return identical bits.
func SetKernel(mode string) error {
	switch mode {
	case "auto":
		useAVX2.Store(kernelAVX2Available())
	case "scalar":
		useAVX2.Store(false)
	case "avx2":
		if !kernelAVX2Available() {
			return fmt.Errorf("mat: avx2 kernel unavailable (no AVX2 CPU support, or a purego build)")
		}
		useAVX2.Store(true)
	default:
		return fmt.Errorf("mat: unknown kernel %q (want auto, avx2 or scalar)", mode)
	}
	return nil
}
