// Package docscheck keeps the repository's documentation honest: it
// parses the markdown docs for intra-repo links, generated sections,
// and CLI flag tables, so tests (and the CI docs job) can fail when a
// link target disappears, when docs/API.md's route table drifts from
// server.Routes(), when its GET /v1/stats example drifts from the stats
// tree's json tags, when a flag table stops matching what the built
// `milret` binary actually registers, or when docs/SURFACE.md stops
// naming, row for row, every settable value the code has and the product
// code that sets it, or when an exported function has no caller outside
// the tests and SURFACE.md does not keep it as a test's reference. The
// checkers are pure functions over file contents; the tests in this package
// apply them to the repo's own docs.
package docscheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"unicode"

	"milret/internal/server"
)

// Link is one markdown link found in a file, split into the path part
// and the #fragment (either may be empty, not both).
type Link struct {
	File     string // path the link was found in
	Line     int    // 1-based line number
	Target   string // path part, "" for a same-file #anchor link
	Fragment string // anchor without the '#', "" when absent
}

var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)\)`)

// Links extracts intra-repo markdown links from md, attributing them
// to file. External schemes (http, https, mailto) are skipped, as are
// fenced and indented code blocks — code examples legitimately contain
// `a[i](x)`-shaped text that is not a link.
func Links(file string, md []byte) []Link {
	var out []Link
	inFence := false
	for i, line := range strings.Split(string(md), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence || strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "    ") {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			out = append(out, Link{File: file, Line: i + 1, Target: path, Fragment: frag})
		}
	}
	return out
}

// Slug converts a heading to its GitHub-style anchor: lowercased, with
// backticks dropped, punctuation removed, and spaces turned into
// hyphens.
func Slug(heading string) string {
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

var headingRE = regexp.MustCompile(`^#{1,6}\s+(.+?)\s*#*\s*$`)

// HeadingSlugs returns the anchor slugs of every markdown heading in
// md (fenced code blocks excluded).
func HeadingSlugs(md []byte) map[string]bool {
	slugs := make(map[string]bool)
	inFence := false
	for _, line := range strings.Split(string(md), "\n") {
		if strings.HasPrefix(strings.TrimLeft(line, " "), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if m := headingRE.FindStringSubmatch(line); m != nil {
			slugs[Slug(m[1])] = true
		}
	}
	return slugs
}

// CheckLinks verifies every intra-repo link in the given files (paths
// relative to root): the path part must exist on disk, and a #fragment
// into a markdown file must name one of its heading anchors. It
// returns one human-readable problem per broken link.
func CheckLinks(root string, files []string) []string {
	var problems []string
	for _, rel := range files {
		md, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", rel, err))
			continue
		}
		for _, l := range Links(rel, md) {
			targetRel := rel // same-file anchor
			if l.Target != "" {
				targetRel = filepath.Join(filepath.Dir(rel), l.Target)
				if _, err := os.Stat(filepath.Join(root, targetRel)); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken link %q: %v", l.File, l.Line, l.Target, err))
					continue
				}
			}
			if l.Fragment == "" {
				continue
			}
			if !strings.HasSuffix(targetRel, ".md") {
				continue // anchors into non-markdown files are not ours to judge
			}
			targetMD, err := os.ReadFile(filepath.Join(root, targetRel))
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: %v", l.File, l.Line, err))
				continue
			}
			if !HeadingSlugs(targetMD)[l.Fragment] {
				problems = append(problems, fmt.Sprintf("%s:%d: anchor #%s not found in %s", l.File, l.Line, l.Fragment, targetRel))
			}
		}
	}
	return problems
}

// Section extracts the body between `<!-- generated:name -->` and
// `<!-- /generated:name -->` markers.
func Section(md []byte, name string) (string, error) {
	open := "<!-- generated:" + name + " -->"
	close := "<!-- /generated:" + name + " -->"
	text := string(md)
	i := strings.Index(text, open)
	if i < 0 {
		return "", fmt.Errorf("marker %q not found", open)
	}
	rest := text[i+len(open):]
	j := strings.Index(rest, close)
	if j < 0 {
		return "", fmt.Errorf("marker %q not found", close)
	}
	return strings.TrimSpace(rest[:j]), nil
}

// RouteTable renders the /v1 route table as the markdown body the
// `generated:routes` section of docs/API.md must contain verbatim.
func RouteTable(routes []server.Route) string {
	var b strings.Builder
	b.WriteString("| Route | Methods | Purpose |\n")
	b.WriteString("| --- | --- | --- |\n")
	for _, r := range routes {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", r.Pattern, strings.Join(r.Methods, ", "), r.Doc)
	}
	return strings.TrimSpace(b.String())
}

// JSONKeys is the set of key paths encoding/json can emit for a value of
// type t: "dim", "cache.hits", "shards.images" (a slice or pointer adds no
// path element; an embedded struct's keys are promoted).
func JSONKeys(t reflect.Type) map[string]bool {
	keys := map[string]bool{}
	jsonKeys(t, "", keys)
	return keys
}

func jsonKeys(t reflect.Type, prefix string, keys map[string]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return
	}
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-":
		case f.Anonymous && name == "":
			jsonKeys(f.Type, prefix, keys)
		case !f.IsExported():
		default:
			if name == "" {
				name = f.Name
			}
			keys[prefix+name] = true
			jsonKeys(f.Type, prefix+name+".", keys)
		}
	}
}

// ExampleKeys is the set of key paths, in JSONKeys' notation, of a JSON
// example as the docs show it: one document inside a ```json fence.
func ExampleKeys(fenced string) (map[string]bool, error) {
	doc := strings.TrimSuffix(strings.TrimPrefix(fenced, "```json"), "```")
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	exampleKeys(v, "", keys)
	return keys, nil
}

func exampleKeys(v any, prefix string, keys map[string]bool) {
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			exampleKeys(e, prefix, keys)
		}
	case map[string]any:
		for k, e := range v {
			keys[prefix+k] = true
			exampleKeys(e, prefix+k+".", keys)
		}
	}
}

var (
	subHeadingRE = regexp.MustCompile("^#{1,6} .*`milret ([a-z-]+)`")
	flagRowRE    = regexp.MustCompile("^\\|\\s*`-([a-z-]+)`")
	anyHeadingRE = regexp.MustCompile(`^#{1,6} `)
)

// FlagTables parses the CLI flag tables of a markdown document: under
// each heading containing `milret <sub>`, rows of the form
// "| `-flag` | ... |" contribute flag names until the next heading.
// Subcommands whose section carries no flag rows are omitted.
func FlagTables(md []byte) map[string][]string {
	tables := make(map[string][]string)
	current := ""
	for _, line := range strings.Split(string(md), "\n") {
		if m := subHeadingRE.FindStringSubmatch(line); m != nil {
			current = m[1]
			continue
		}
		if anyHeadingRE.MatchString(line) {
			current = ""
			continue
		}
		if current == "" {
			continue
		}
		if m := flagRowRE.FindStringSubmatch(line); m != nil {
			tables[current] = append(tables[current], m[1])
		}
	}
	return tables
}

var helpFlagRE = regexp.MustCompile(`(?m)^  -([a-z-]+)`)

// HelpFlags parses the flag names out of a flag.FlagSet's -help
// output.
func HelpFlags(help string) []string {
	var out []string
	for _, m := range helpFlagRE.FindAllStringSubmatch(help, -1) {
		out = append(out, m[1])
	}
	return out
}

// UsageSubcommands parses the subcommand list out of the bare
// `milret` usage line ("usage: milret <a|b|c> [flags]").
func UsageSubcommands(usage string) []string {
	i := strings.Index(usage, "<")
	j := strings.Index(usage, ">")
	if i < 0 || j < i {
		return nil
	}
	return strings.Split(usage[i+1:j], "|")
}

var surfaceRowRE = regexp.MustCompile("^\\|\\s*`([^`]+)`\\s*\\|([^|]*)\\|")

// SurfaceRows parses the tables of docs/SURFACE.md: every row whose first
// cell is one backticked name maps that name to its second cell — the
// product code that sets or calls it.
func SurfaceRows(md []byte) map[string]string {
	rows := make(map[string]string)
	for _, line := range strings.Split(string(md), "\n") {
		if m := surfaceRowRE.FindStringSubmatch(line); m != nil {
			rows[m[1]] = strings.TrimSpace(m[2])
		}
	}
	return rows
}

// StructFields names every exported field of struct type t the way
// docs/SURFACE.md does: "milret.Options.Resolution".
func StructFields(t reflect.Type) []string {
	var out []string
	for i := range t.NumField() {
		if f := t.Field(i); f.IsExported() {
			out = append(out, t.String()+"."+f.Name)
		}
	}
	return out
}

var opConstRE = regexp.MustCompile(`(?m)^\s*(op[A-Z]\w*)\s+byte\s*=\s*(\d+)`)

// RPCOps returns the shard RPC's op codes by constant name, read out of the
// declarations ("opTopK byte = 3") in Go source src: the protocol exports
// none of them.
func RPCOps(src []byte) map[string]string {
	ops := make(map[string]string)
	for _, m := range opConstRE.FindAllSubmatch(src, -1) {
		ops[string(m[1])] = string(m[2])
	}
	return ops
}

var getenvRE = regexp.MustCompile(`os\.(?:Getenv|LookupEnv)\("([A-Za-z0-9_]+)"\)`)

// EnvVars lists the environment variables Go source src reads by literal
// name.
func EnvVars(src []byte) []string {
	var out []string
	for _, m := range getenvRE.FindAllSubmatch(src, -1) {
		out = append(out, string(m[1]))
	}
	return out
}
