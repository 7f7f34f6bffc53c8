//go:build amd64 && !purego

package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The constants of math's exp_amd64.s.
const (
	archLog2e = 1.4426950408889634073599246810018920
	archLn2U  = 0.69314718055966295651160180568695068359375
	archLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// archExpTaylor is exp_amd64.s's exprodata polynomial, highest order first.
var archExpTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// archExpPath transcribes the straight-line part of math.Exp on amd64:
// fused selects the avxfma body (every VFMADD/VFNMADD a math.FMA), !fused
// the SSE body (every product rounded on its own; the float64 conversions
// keep the compiler from fusing them). ok is false where the assembly
// leaves that path — a biased exponent outside [1, 0x7FE].
func archExpPath(x float64, fused bool) (r float64, ok bool) {
	k := math.RoundToEven(float64(archLog2e * x)) // CVTSD2SL under the default rounding
	if !(k >= -1022 && k <= 1023) {
		return 0, false
	}
	if fused {
		x = math.FMA(-k, archLn2U, x)
		x = math.FMA(-k, archLn2L, x)
	} else {
		x = x - float64(k*archLn2U)
		x = x - float64(k*archLn2L)
	}
	x *= 0.0625
	p := archExpTaylor[0]
	for _, c := range archExpTaylor[1:] {
		if fused {
			p = math.FMA(x, p, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fused {
		x = math.FMA(x+2, x, 1)
	} else {
		x *= x + 2
		x += 1
	}
	return x * math.Float64frombits(uint64(int64(k)+0x3FF)<<52), true
}

// TestFMAGateMatchesMathExp: the exp bodies fuse, so they may run only where
// math.Exp fuses. Over the objective's exponents it finds the inputs on
// which the fused and unfused forms of math.Exp round differently and
// asserts that math.Exp returns the form haveFMA predicts on every one —
// so a host (or a GODEBUG=cpu.fma=off) that takes the unfused form never
// gets the fused bodies. It also holds the whole predicted form to math.Exp
// on every input, which is what makes the transcription above trustworthy,
// and checks that fmaProbe is still one of the inputs that tell the forms
// apart.
func TestFMAGateMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	differ := 0
	for i := 0; i < 200000; i++ {
		x := -rng.Float64() * 745
		if i%4 == 0 {
			x = (rng.Float64() - 0.5) * 2
		}
		fused, ok := archExpPath(x, true)
		unfused, _ := archExpPath(x, false)
		if !ok {
			continue
		}
		predicted := unfused
		if haveFMA {
			predicted = fused
		}
		if got := math.Exp(x); math.Float64bits(got) != math.Float64bits(predicted) {
			t.Fatalf("math.Exp(%v) = %#x; haveFMA = %v predicts %#x (fused %#x, unfused %#x)",
				x, math.Float64bits(got), haveFMA, math.Float64bits(predicted), math.Float64bits(fused), math.Float64bits(unfused))
		}
		if fused != unfused {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no input told the fused and unfused forms apart: the gate went untested")
	}
	fused, _ := archExpPath(fmaProbe, true)
	unfused, _ := archExpPath(fmaProbe, false)
	if math.Float64bits(fused) != fmaProbeFused || fused == unfused {
		t.Fatalf("fmaProbe %v: fused %#x (want %#x), unfused %#x: it must tell the forms apart",
			fmaProbe, math.Float64bits(fused), uint64(fmaProbeFused), math.Float64bits(unfused))
	}
	t.Logf("haveFMA = %v; %d of the inputs round differently fused and unfused", haveFMA, differ)
}
