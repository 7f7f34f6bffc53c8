// Package linttest runs a lint.Analyzer over an on-disk fixture
// package and checks its diagnostics against `// want` annotations —
// the same contract as golang.org/x/tools' analysistest, rebuilt on
// the standard library so the module stays dependency-free.
//
// A fixture directory (conventionally internal/lint/testdata/src/<name>)
// holds one Go package. Lines that should be flagged carry a trailing
// comment with one or more backquoted regular expressions:
//
//	s.items = nil // want `without s\.mu held`
//
// A line whose only comment is a //lint:ignore directive carries its want
// inside the directive, after the reason:
//
//	//lint:ignore nosuchanalyzer reason // want `not a registered analyzer`
//
// Every diagnostic must be matched by a want on its line and every
// want must match a diagnostic; order within one line is positional.
// Fixtures are type-checked against the real standard library via the
// source importer, so they may import os, sync, sync/atomic, math, ...
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"milret/internal/lint"
)

// Run analyzes the fixture package in dir with a and compares
// diagnostics against the // want annotations.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", dir, err)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no .go files", dir)
	}

	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, _ := conf.Check(files[0].Name.Name, fset, files, info)
	if len(typeErrs) > 0 {
		for _, e := range typeErrs {
			t.Errorf("fixture type error: %v", e)
		}
		t.Fatalf("fixture %s must type-check", dir)
	}

	diags, err := lint.Run(fset, files, pkg, info, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	checkDiagnostics(t, fset, diags, wants)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type lineKey struct {
	file string
	line int
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// collectWants parses `// want `re`...` comments, and the same suffix of
// any other comment, into per-line regexp lists.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, text, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Errorf("%s: malformed want comment (no backquoted regexp): %s", pos, c.Text)
					continue
				}
				k := lineKey{pos.Filename, pos.Line}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, m[1], err)
						continue
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

func checkDiagnostics(t *testing.T, fset *token.FileSet, diags []lint.Diagnostic, wants map[lineKey][]*regexp.Regexp) {
	t.Helper()
	got := make(map[lineKey][]lint.Diagnostic)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		got[k] = append(got[k], d)
	}
	keys := make(map[lineKey]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range wants {
		keys[k] = true
	}
	sorted := make([]lineKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].file != sorted[j].file {
			return sorted[i].file < sorted[j].file
		}
		return sorted[i].line < sorted[j].line
	})
	for _, k := range sorted {
		ds, ws := got[k], wants[k]
		n := len(ds)
		if len(ws) > n {
			n = len(ws)
		}
		for i := 0; i < n; i++ {
			switch {
			case i >= len(ws):
				t.Errorf("%s:%d: unexpected diagnostic: %s: %s", k.file, k.line, ds[i].Analyzer, ds[i].Message)
			case i >= len(ds):
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, ws[i])
			case !ws[i].MatchString(ds[i].Message):
				t.Errorf("%s:%d: diagnostic %q does not match want %q", k.file, k.line, ds[i].Message, ws[i])
			}
		}
	}
}
