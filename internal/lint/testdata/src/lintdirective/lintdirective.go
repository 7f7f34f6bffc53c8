// Package lintdirective is the //lint:ignore fixture: a directive must
// name a registered analyzer, whichever analyzers the run includes.
package lintdirective

func f(x float64) float64 {
	//lint:ignore nosuchanalyzer reason // want `"nosuchanalyzer", which is not a registered analyzer`
	y := x
	//lint:ignore guardcheck,kernelpure names two registered analyzers
	y += x
	//lint:ignore * suppresses every analyzer
	return y
}
