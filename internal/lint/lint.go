// Package lint is a small, dependency-free analysis framework in the
// spirit of golang.org/x/tools/go/analysis, sized for this repository.
//
// The module deliberately has zero third-party dependencies, so instead
// of importing the x/tools framework we define the minimal surface the
// milret analyzers need: an Analyzer runs over one type-checked package
// and reports position-tagged diagnostics. cmd/milretlint adapts this
// interface to the `go vet -vettool` protocol.
//
// Suppression: a diagnostic is dropped when the source carries an
// ignore directive of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// either on the same line as the diagnostic or on the line directly
// above it. The reason is mandatory, and every name must be a registered
// analyzer (or `*`, for all of them); an ignore that breaks either rule is
// itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "guardcheck"
	Doc  string // one-paragraph description of what it enforces
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls in a *_test.go file. Analyzers
// whose invariants are about production concurrency or durability skip
// test files: tests drive single-goroutine white-box sequences where
// the lock and fsync disciplines deliberately do not apply.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// All returns every registered milret analyzer in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		GuardCheck,
		Durably,
		KernelPure,
	}
}

// Run executes the given analyzers over one type-checked package,
// applies //lint:ignore suppression, and returns the surviving
// diagnostics sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = suppress(fset, files, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// ignoreKey identifies one source line of one file.
type ignoreKey struct {
	file string
	line int
}

// suppress drops diagnostics covered by a well-formed //lint:ignore
// directive and appends a diagnostic for each malformed one. Names are
// checked against every registered analyzer, not just those of this run, so
// a directive for an analyzer that was deleted or misspelled is reported
// instead of standing in the code as a justification for nothing.
func suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	registered := map[string]bool{"*": true}
	for _, a := range All() {
		registered[a.Name] = true
	}
	// ignores maps (file, line) -> analyzer names suppressed there.
	ignores := make(map[ignoreKey]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				names, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				if names == "" || strings.TrimSpace(reason) == "" {
					diags = append(diags, Diagnostic{
						Analyzer: "lintdirective",
						Pos:      c.Pos(),
						Message:  "malformed //lint:ignore: need `//lint:ignore <analyzer> <reason>`",
					})
					continue
				}
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if !registered[n] {
						diags = append(diags, Diagnostic{
							Analyzer: "lintdirective",
							Pos:      c.Pos(),
							Message:  fmt.Sprintf("//lint:ignore names %q, which is not a registered analyzer", n),
						})
						continue
					}
					// The directive covers its own line (trailing comment)
					// and the next line (standalone comment above the code).
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := ignoreKey{pos.Filename, line}
						if ignores[k] == nil {
							ignores[k] = make(map[string]bool)
						}
						ignores[k][n] = true
					}
				}
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		set := ignores[ignoreKey{pos.Filename, pos.Line}]
		if set != nil && (set[d.Analyzer] || set["*"]) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
