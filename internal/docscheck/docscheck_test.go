package docscheck

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"milret"
	"milret/internal/core"
	"milret/internal/optimize"
	"milret/internal/remote"
	"milret/internal/server"
	"milret/internal/store"
)

// repoRoot is where the checked docs live, relative to this package.
const repoRoot = "../.."

// docFiles are the repo docs the link checker covers. PAPERS.md and
// SNIPPETS.md are excluded deliberately: they are externally generated
// reference dumps carrying dangling artifact links we do not own.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"}
	docs, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 3 {
		t.Fatalf("expected at least ARCHITECTURE/API/OPERATIONS under docs/, found %d files", len(docs))
	}
	for _, d := range docs {
		rel, err := filepath.Rel(repoRoot, d)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, rel)
	}
	return files
}

// TestRepoLinks fails on any intra-repo markdown link whose target
// file or heading anchor does not exist.
func TestRepoLinks(t *testing.T) {
	for _, p := range CheckLinks(repoRoot, docFiles(t)) {
		t.Error(p)
	}
}

// TestREADMELinksAllDocs pins the acceptance criterion: README must
// link to all three documentation files.
func TestREADMELinksAllDocs(t *testing.T) {
	md, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	linked := make(map[string]bool)
	for _, l := range Links("README.md", md) {
		linked[l.Target] = true
	}
	for _, want := range []string{"docs/ARCHITECTURE.md", "docs/API.md", "docs/OPERATIONS.md"} {
		if !linked[want] {
			t.Errorf("README.md does not link to %s", want)
		}
	}
}

// TestAPIRouteTableMatchesServer regenerates the route table from
// server.Routes() and requires docs/API.md's generated section to
// match byte for byte — the doc cannot drift from the mux.
func TestAPIRouteTableMatchesServer(t *testing.T) {
	md, err := os.ReadFile(filepath.Join(repoRoot, "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Section(md, "routes")
	if err != nil {
		t.Fatalf("docs/API.md: %v", err)
	}
	want := RouteTable(server.Routes())
	if got != want {
		t.Errorf("docs/API.md generated:routes section is stale.\n--- doc ---\n%s\n--- server.Routes() ---\n%s\nRegenerate the section between the markers from the table above.", got, want)
	}
}

// TestAPIStatsKeysMatchTree reflects over milret.Stats — the value GET
// /v1/stats marshals — and requires the example in docs/API.md's
// generated:stats-example section to name exactly its keys: a counter added
// to the tree must be documented, and the example cannot keep a key the
// tree no longer has.
func TestAPIStatsKeysMatchTree(t *testing.T) {
	md, err := os.ReadFile(filepath.Join(repoRoot, "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	example, err := Section(md, "stats-example")
	if err != nil {
		t.Fatalf("docs/API.md: %v", err)
	}
	documented, err := ExampleKeys(example)
	if err != nil {
		t.Fatalf("docs/API.md generated:stats-example: %v", err)
	}
	tree := JSONKeys(reflect.TypeOf(milret.Stats{}))
	for k := range tree {
		if !documented[k] {
			t.Errorf("docs/API.md GET /v1/stats: the example lacks %q, a key of milret.Stats", k)
		}
	}
	for k := range documented {
		if !tree[k] {
			t.Errorf("docs/API.md GET /v1/stats: the example names %q, which milret.Stats does not have", k)
		}
	}
}

func TestJSONKeys(t *testing.T) {
	type inner struct {
		A int `json:"a,omitempty"`
		b int
	}
	type row struct {
		inner
		C string `json:"-"`
		D *inner
	}
	type tree struct {
		inner
		Rows []row  `json:"rows"`
		Opt  *inner `json:"opt,omitzero"`
	}
	got := JSONKeys(reflect.TypeOf(tree{}))
	want := map[string]bool{"a": true, "opt": true, "opt.a": true, "rows": true, "rows.D": true, "rows.D.a": true, "rows.a": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSONKeys = %v, want %v", got, want)
	}
}

func TestExampleKeys(t *testing.T) {
	got, err := ExampleKeys("```json\n{\"a\": 1, \"rows\": [{\"b\": 2}, {\"c\": {\"d\": 3}}]}\n```")
	want := map[string]bool{"a": true, "rows": true, "rows.b": true, "rows.c": true, "rows.c.d": true}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ExampleKeys = %v, %v, want %v", got, err, want)
	}
	if _, err := ExampleKeys("```json\n{\"a\": 1, ...}\n```"); err == nil {
		t.Error("ExampleKeys accepted an example that is not JSON")
	}
}

// TestCLIFlagTablesMatchBinary builds cmd/milret and checks every
// documented flag table (docs/API.md and README.md) against the flags
// the binary actually registers — both directions: a documented flag
// that was removed and a new flag left undocumented each fail. It also
// requires docs/API.md to document every subcommand the binary's usage
// line advertises.
func TestCLIFlagTablesMatchBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the milret binary; skipped in -short")
	}
	bin := buildMilret(t)
	subs := subcommands(t, bin)

	apiMD, err := os.ReadFile(filepath.Join(repoRoot, "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	apiTables := FlagTables(apiMD)
	for _, sub := range subs {
		if len(apiTables[sub]) == 0 {
			t.Errorf("docs/API.md documents no flags for `milret %s`", sub)
		}
	}

	check := func(docName string, tables map[string][]string) {
		for sub, documented := range tables {
			sort.Strings(documented)
			got := binaryFlags(t, bin, sub)
			if !reflect.DeepEqual(documented, got) {
				t.Errorf("%s flag table for `milret %s` drifted:\n  documented: %v\n  binary:     %v", docName, sub, documented, got)
			}
		}
	}
	check("docs/API.md", apiTables)

	readmeMD, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	check("README.md", FlagTables(readmeMD))
}

// buildMilret builds cmd/milret into a temporary directory.
func buildMilret(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "milret")
	build := exec.Command("go", "build", "-o", bin, "milret/cmd/milret")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// subcommands is the subcommand universe: the bare binary prints "usage:
// milret <a|b|...> [flags]" and exits 2.
func subcommands(t *testing.T, bin string) []string {
	t.Helper()
	usageOut, _ := exec.Command(bin).CombinedOutput()
	subs := UsageSubcommands(string(usageOut))
	if len(subs) == 0 {
		t.Fatalf("could not parse subcommands from usage: %q", usageOut)
	}
	return subs
}

// binaryFlags lists, sorted, the flags `milret sub -h` registers.
func binaryFlags(t *testing.T, bin, sub string) []string {
	t.Helper()
	helpOut, _ := exec.Command(bin, sub, "-h").CombinedOutput()
	flags := HelpFlags(string(helpOut))
	if len(flags) == 0 {
		t.Fatalf("milret %s -h listed no flags:\n%s", sub, helpOut)
	}
	sort.Strings(flags)
	return flags
}

// TestSurfaceTableMatchesCode derives the settable surface from the code —
// every exported field of the option, request and topology structs, every
// flag the built binary registers, every environment variable product code
// reads, every shard RPC op, every on-disk magic with its version — and
// requires docs/SURFACE.md to carry exactly those rows, each naming who sets
// or calls it. A field, flag or op added without a row fails here, and so
// does a row whose subject is gone.
func TestSurfaceTableMatchesCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the milret binary; skipped in -short")
	}
	want := map[string]bool{}
	for _, v := range []any{
		milret.Options{}, milret.TrainOptions{},
		server.QueryRequest{}, server.BatchQuery{}, server.BatchRetrieveRequest{}, server.UpdateImageRequest{},
		remote.Topology{}, remote.PartitionSpec{}, remote.CoordinatorOptions{},
		core.Config{}, optimize.Options{},
	} {
		for _, name := range StructFields(reflect.TypeOf(v)) {
			want[name] = true
		}
	}

	bin := buildMilret(t)
	for _, sub := range subcommands(t, bin) {
		for _, f := range binaryFlags(t, bin, sub) {
			want["milret "+sub+" -"+f] = true
		}
	}

	// Product source: everything but tests, the bench module and dot
	// directories.
	err := filepath.WalkDir(repoRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != repoRoot && (name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range EnvVars(src) {
			want[name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	protocol, err := os.ReadFile(filepath.Join(repoRoot, "internal", "remote", "protocol.go"))
	if err != nil {
		t.Fatal(err)
	}
	ops := RPCOps(protocol)
	if len(ops) == 0 {
		t.Fatal("internal/remote/protocol.go declares no op constants")
	}
	for _, value := range ops {
		want[remote.Magic+" op "+value] = true
	}

	for _, f := range []struct {
		magic   string
		version int
	}{
		{store.FlatMagic, store.FlatVersion},
		{store.WALMagic, store.WALVersion},
		{store.ManifestMagic, store.ManifestVersion},
		{store.CacheSidecarMagic, store.CacheSidecarVersion},
	} {
		want[fmt.Sprintf("%s v%d", f.magic, f.version)] = true
	}

	md, err := os.ReadFile(filepath.Join(repoRoot, "docs", "SURFACE.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := SurfaceRows(md)
	for name := range want {
		if setBy, ok := rows[name]; !ok {
			t.Errorf("docs/SURFACE.md has no row for `%s`", name)
		} else if setBy == "" {
			t.Errorf("docs/SURFACE.md: the row for `%s` names nothing that sets or calls it", name)
		}
	}
	for name := range rows {
		if !want[name] {
			t.Errorf("docs/SURFACE.md has a row for `%s`, which the code no longer has", name)
		}
	}
}

// --- parser unit tests -------------------------------------------------

func TestLinksParsing(t *testing.T) {
	md := []byte("See [arch](docs/ARCHITECTURE.md) and [ops](docs/OPERATIONS.md#resharding).\n" +
		"External [go](https://go.dev) and [mail](mailto:x@y.z) are skipped.\n" +
		"Same-file [anchor](#heading).\n" +
		"```\ncode [not](a-link.md)\n```\n" +
		"    indented [not](code.md) either\n" +
		"![diagram](img/flow.png)\n")
	got := Links("f.md", md)
	want := []Link{
		{File: "f.md", Line: 1, Target: "docs/ARCHITECTURE.md"},
		{File: "f.md", Line: 1, Target: "docs/OPERATIONS.md", Fragment: "resharding"},
		{File: "f.md", Line: 3, Fragment: "heading"},
		{File: "f.md", Line: 8, Target: "img/flow.png"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Links:\n got %+v\nwant %+v", got, want)
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Resharding":        "resharding",
		"GET /v1/healthz":   "get-v1healthz",
		"`milret gen`":      "milret-gen",
		"Kernel & batching": "kernel--batching",
		"The perf gate":     "the-perf-gate",
		"Shard RPC: the `MILRETR1` frame protocol": "shard-rpc-the-milretr1-frame-protocol",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSectionExtraction(t *testing.T) {
	md := []byte("x\n<!-- generated:routes -->\nBODY\nLINES\n<!-- /generated:routes -->\ny\n")
	got, err := Section(md, "routes")
	if err != nil || got != "BODY\nLINES" {
		t.Errorf("Section = %q, %v", got, err)
	}
	if _, err := Section(md, "missing"); err == nil {
		t.Error("Section found a marker that does not exist")
	}
	if _, err := Section([]byte("<!-- generated:x -->"), "x"); err == nil {
		t.Error("Section accepted an unclosed marker")
	}
}

func TestFlagTableParsing(t *testing.T) {
	md := []byte("### `milret gen`\n\nText.\n\n| Flag | Default | Meaning |\n| --- | --- | --- |\n| `-kind` | `scenes` | corpus kind |\n| `-dir` | `corpus` | output |\n\n### Unrelated heading\n\n| `-not-a-flag` | x | outside any subcommand section |\n\n#### `milret reshard`\n| `-src` | | source |\n")
	got := FlagTables(md)
	want := map[string][]string{"gen": {"kind", "dir"}, "reshard": {"src"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FlagTables = %v, want %v", got, want)
	}
}

func TestHelpFlagsParsing(t *testing.T) {
	help := "Usage of gen:\n  -dir string\n    \toutput directory (default \"corpus\")\n  -kind string\n    \tcorpus kind (default \"scenes\")\n  -per-category int\n    \timages per category\n"
	got := HelpFlags(help)
	want := []string{"dir", "kind", "per-category"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HelpFlags = %v, want %v", got, want)
	}
}

func TestUsageSubcommands(t *testing.T) {
	got := UsageSubcommands("usage: milret <gen|build|serve> [flags]")
	if !reflect.DeepEqual(got, []string{"gen", "build", "serve"}) {
		t.Errorf("UsageSubcommands = %v", got)
	}
}

func TestSurfaceRowsParsing(t *testing.T) {
	md := []byte("| Surface | Set by | Note |\n| --- | --- | --- |\n| `milret.Options.Shards` | `cmd/milret`: `build -shards` | fixed at construction |\n| `MILRETR1 op 3` |  | nobody |\n| plain | not a surface row | |\n")
	got := SurfaceRows(md)
	want := map[string]string{"milret.Options.Shards": "`cmd/milret`: `build -shards`", "MILRETR1 op 3": ""}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SurfaceRows = %q, want %q", got, want)
	}
}

func TestSurfaceSources(t *testing.T) {
	type opts struct {
		Shards int
		hidden bool
		Recall float64
	}
	if got, want := StructFields(reflect.TypeOf(opts{})), []string{"docscheck.opts.Shards", "docscheck.opts.Recall"}; !reflect.DeepEqual(got, want) {
		t.Errorf("StructFields = %v, want %v", got, want)
	}
	src := []byte("package p\n\nimport \"os\"\n\nconst (\n\topPing byte = 1 // probe\n\topGet  byte = 9\n\tother  byte = 7\n\topWide int  = 2\n)\n\nvar mode = os.Getenv(\"P_MODE\")\n")
	if ops, want := RPCOps(src), (map[string]string{"opPing": "1", "opGet": "9"}); !reflect.DeepEqual(ops, want) {
		t.Errorf("RPCOps = %v, want %v", ops, want)
	}
	if got := EnvVars(src); !reflect.DeepEqual(got, []string{"P_MODE"}) {
		t.Errorf("EnvVars = %v", got)
	}
}
