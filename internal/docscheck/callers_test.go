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
	"slices"
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

// surfaceList reads one list section of docs/SURFACE.md: for every
// backticked name before the dash of an item, the backticked names after it.
func surfaceList(md []byte, heading string) (map[string][]string, error) {
	_, section, ok := strings.Cut(string(md), "\n## "+heading+"\n")
	if !ok {
		return nil, fmt.Errorf("no %q section", "## "+heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	list := map[string][]string{}
	for _, item := range strings.Split(section, "\n- ")[1:] {
		names, rest, _ := strings.Cut(item, "—")
		var after []string
		for _, n := range backtickRE.FindAllStringSubmatch(rest, -1) {
			after = append(after, n[1])
		}
		for _, n := range backtickRE.FindAllStringSubmatch(names, -1) {
			list[n[1]] = after
		}
	}
	return list, nil
}

// stdCaller stands for the standard library as the caller of a method that
// satisfies error, fmt.Stringer or http.Handler.
const stdCaller = "(std)"

// TestExportedFunctionsHaveACaller holds every exported function and method
// of module milret to a caller outside the tests: some non-test file of
// milret or of the bench module must reference it. A method is also called
// where non-test code calls a method of an interface its type satisfies, or
// of error, fmt.Stringer or http.Handler. A function kept only as a test's
// reference is listed, with the reason, in docs/SURFACE.md; so is a function
// that only bench/ calls, with the bench files that call it, and either
// entry goes once product code calls the function.
func TestExportedFunctionsHaveACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("lists and type-checks every package; skipped in -short")
	}
	md, err := os.ReadFile(filepath.Join(repoRoot, "docs", "SURFACE.md"))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := surfaceList(md, "Kept as a test's reference")
	if err != nil {
		t.Fatalf("docs/SURFACE.md: %v", err)
	}
	forBench, err := surfaceList(md, "Kept for bench/")
	if err != nil {
		t.Fatalf("docs/SURFACE.md: %v", err)
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs, imp := loadRepository(t)

	// refs maps a function, and calledIn an interface whose methods are
	// called, to the repository-relative non-test files that do so.
	refs := map[*types.Func]map[string]bool{}
	calledIn := map[*types.Interface]map[string]bool{}
	addRef := func(m map[string]bool, file string) map[string]bool {
		if m == nil {
			m = map[string]bool{}
		}
		m[file] = true
		return m
	}
	for _, c := range pkgs {
		for id, obj := range c.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			file, err := filepath.Rel(root, fset.Position(id.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			file = filepath.ToSlash(file)
			refs[fn.Origin()] = addRef(refs[fn.Origin()], file)
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					calledIn[iface] = addRef(calledIn[iface], file)
				}
			}
		}
	}
	calledIn[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = map[string]bool{stdCaller: true}
	for _, std := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"net/http", "Handler"}} {
		p, err := imp.Import(std.pkg)
		if err != nil {
			t.Fatal(err)
		}
		calledIn[p.Scope().Lookup(std.name).Type().Underlying().(*types.Interface)] = map[string]bool{stdCaller: true}
	}
	// callers returns the files that call fn, directly or through an
	// interface its receiver satisfies.
	callers := func(fn *types.Func) map[string]bool {
		files := map[string]bool{}
		for f := range refs[fn] {
			files[f] = true
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return files
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for iface, in := range calledIn {
			for i := range iface.NumMethods() {
				if iface.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
					for f := range in {
						files[f] = true
					}
				}
			}
		}
		return files
	}

	var problems []string
	type verdict struct{ product, called bool }
	found := map[string]verdict{}
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
				var benchFiles []string
				product := false
				for file := range callers(fn) {
					if strings.HasPrefix(file, "bench/") {
						benchFiles = append(benchFiles, file)
					} else {
						product = true
					}
				}
				sort.Strings(benchFiles)
				found[name] = verdict{product: product, called: product || len(benchFiles) > 0}
				pos := fset.Position(fd.Pos())
				_, isKept := kept[name]
				switch {
				case !product && len(benchFiles) == 0 && !isKept:
					problems = append(problems, fmt.Sprintf("%s: %s has no caller outside the tests: delete it, or list it in docs/SURFACE.md under \"Kept as a test's reference\" with the test it serves", pos, name))
				case !product && len(benchFiles) > 0:
					listed, ok := forBench[name]
					if !ok {
						problems = append(problems, fmt.Sprintf("%s: %s is called only from %s: list it in docs/SURFACE.md under \"Kept for bench/\" with those files", pos, name, strings.Join(benchFiles, ", ")))
					} else if sort.Strings(listed); !slices.Equal(listed, benchFiles) {
						problems = append(problems, fmt.Sprintf("docs/SURFACE.md keeps `%s` for %s, but it is called from %s", name, strings.Join(listed, ", "), strings.Join(benchFiles, ", ")))
					}
				}
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	for name := range kept {
		if v, ok := found[name]; !ok {
			t.Errorf("docs/SURFACE.md keeps `%s` as a test's reference, but module milret has no such exported function", name)
		} else if v.called {
			t.Errorf("docs/SURFACE.md keeps `%s` as a test's reference, but non-test code calls it: drop it from the list", name)
		}
	}
	for name := range forBench {
		if v, ok := found[name]; !ok {
			t.Errorf("docs/SURFACE.md keeps `%s` for bench/, but module milret has no such exported function", name)
		} else if v.product {
			t.Errorf("docs/SURFACE.md keeps `%s` for bench/, but product code calls it: drop it from the list", name)
		}
	}
}
