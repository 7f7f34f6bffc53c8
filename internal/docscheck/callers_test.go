package docscheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` the caller rule reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// goList lists the packages of the module in dir and every dependency, in
// dependency order, with export data for each. The platform is pinned so
// that the files a build tag selects, and with them the references found,
// are the same on every host.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// checkedPackage is one package of the repository, type-checked from source.
type checkedPackage struct {
	module string
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
}

// loadRepository type-checks every package of module milret and of the
// bench module from source, importing everything else from export data.
func loadRepository(t *testing.T) (*token.FileSet, map[string]*checkedPackage, types.Importer) {
	t.Helper()
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*checkedPackage{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if c, ok := checked[path]; ok {
			return c.pkg, nil
		}
		return gc.Import(path)
	})
	for _, dir := range []string{repoRoot, filepath.Join(repoRoot, "bench")} {
		for _, p := range goList(t, dir) {
			exports[p.ImportPath] = p.Export
			if p.Module == nil || (p.Module.Path != "milret" && p.Module.Path != "milret/bench") || checked[p.ImportPath] != nil {
				continue
			}
			c := &checkedPackage{module: p.Module.Path, info: &types.Info{
				Defs: map[*ast.Ident]types.Object{},
				Uses: map[*ast.Ident]types.Object{},
			}}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				c.files = append(c.files, f)
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(p.ImportPath, fset, c.files, c.info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			c.pkg = pkg
			checked[p.ImportPath] = c
		}
	}
	return fset, checked, imp
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// callerRuleExempt are the test-support packages: their exported functions
// exist for tests alone.
var callerRuleExempt = map[string]bool{
	"milret/internal/docscheck":     true,
	"milret/internal/lint/linttest": true,
}

// funcName names a function the way docs/SURFACE.md does:
// "qcache.Cache.Len", "core.NegLogDDAt".
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

var backtickRE = regexp.MustCompile("`([^`]+)`")

// keptAsReference returns the functions docs/SURFACE.md's "Kept as a
// test's reference" list names: every backticked name before the dash of
// each item.
func keptAsReference(md []byte) (map[string]bool, error) {
	_, section, ok := strings.Cut(string(md), "\n## Kept as a test's reference\n")
	if !ok {
		return nil, errors.New(`no "## Kept as a test's reference" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	kept := map[string]bool{}
	for _, item := range strings.Split(section, "\n- ")[1:] {
		names, _, _ := strings.Cut(item, "—")
		for _, n := range backtickRE.FindAllStringSubmatch(names, -1) {
			kept[n[1]] = true
		}
	}
	return kept, nil
}

// TestExportedFunctionsHaveACaller holds every exported function and method
// of module milret to a caller outside the tests: some non-test file of
// milret or of the bench module must reference it. A method is also called
// when its type satisfies an interface whose methods non-test code calls,
// or error, fmt.Stringer or http.Handler. A function kept only as a test's
// reference is listed, with the reason, in docs/SURFACE.md.
func TestExportedFunctionsHaveACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("lists and type-checks every package; skipped in -short")
	}
	md, err := os.ReadFile(filepath.Join(repoRoot, "docs", "SURFACE.md"))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := keptAsReference(md)
	if err != nil {
		t.Fatalf("docs/SURFACE.md: %v", err)
	}
	fset, pkgs, imp := loadRepository(t)

	used := map[*types.Func]bool{}
	called := map[*types.Interface]bool{}
	for _, c := range pkgs {
		for _, obj := range c.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[iface] = true
				}
			}
		}
	}
	called[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, std := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"net/http", "Handler"}} {
		p, err := imp.Import(std.pkg)
		if err != nil {
			t.Fatal(err)
		}
		called[p.Scope().Lookup(std.name).Type().Underlying().(*types.Interface)] = true
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for iface := range called {
			for i := range iface.NumMethods() {
				if iface.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
					return true
				}
			}
		}
		return false
	}

	var uncalled []string
	found := map[string]bool{}
	for path, c := range pkgs {
		if c.module != "milret" || callerRuleExempt[path] {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				name := funcName(fn)
				hasCaller := used[fn] || (fd.Recv != nil && satisfies(fn))
				found[name] = hasCaller
				if !hasCaller && !kept[name] {
					uncalled = append(uncalled, fmt.Sprintf("%s: %s", fset.Position(fd.Pos()), name))
				}
			}
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no caller outside the tests: delete it, or list it in docs/SURFACE.md under \"Kept as a test's reference\" with the test it serves", u)
	}
	for name := range kept {
		if hasCaller, ok := found[name]; !ok {
			t.Errorf("docs/SURFACE.md keeps `%s` as a test's reference, but module milret has no such exported function", name)
		} else if hasCaller {
			t.Errorf("docs/SURFACE.md keeps `%s` as a test's reference, but product code calls it: drop it from the list", name)
		}
	}
}
