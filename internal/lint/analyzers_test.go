package lint_test

import (
	"testing"

	"milret/internal/lint"
	"milret/internal/lint/linttest"
)

func TestGuardCheck(t *testing.T) {
	linttest.Run(t, "testdata/src/guardcheck", lint.GuardCheck)
}

func TestDurably(t *testing.T) {
	linttest.Run(t, "testdata/src/durably", lint.Durably)
}

func TestKernelPure(t *testing.T) {
	linttest.Run(t, "testdata/src/kernelpure", lint.KernelPure)
}

// TestIgnoreNamesARegisteredAnalyzer runs a fixture of //lint:ignore
// directives under an analyzer none of them names: only the directive for
// an analyzer that does not exist is reported.
func TestIgnoreNamesARegisteredAnalyzer(t *testing.T) {
	linttest.Run(t, "testdata/src/lintdirective", lint.KernelPure)
}
