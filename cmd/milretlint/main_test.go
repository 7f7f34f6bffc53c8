package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the vettool into a temp dir. The go build cache
// makes repeat builds within one test run nearly free.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "milretlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building milretlint: %v\n%s", err, out)
	}
	return bin
}

// TestVersionProtocol checks the -V=full probe cmd/go uses to
// fingerprint the tool for its vet result cache.
func TestVersionProtocol(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	got := string(out)
	if !strings.HasPrefix(got, "milretlint version ") || !strings.Contains(got, "buildID=") {
		t.Fatalf("-V=full output %q does not fingerprint the tool", got)
	}
}

// TestFlagsProtocol checks the -flags probe cmd/go uses to discover
// tool flags.
func TestFlagsProtocol(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("-flags printed %q, want []", out)
	}
}

// wantFixtureDiags is what the tool must report for the seeded fixture
// module: one violation per analyzer, with the durably
// helper missing both halves of the fsync discipline.
var wantFixtureDiags = []string{
	"milretlint:guardcheck",
	"milretlint:durably",
	"milretlint:kernelpure",
	"milretlint:atomicfield",
	"write to s.items without s.mu held",
	"os.Rename outside a milret:atomic-rename helper",
	"without a preceding Sync",
	"without a following directory fsync",
	"math.FMA in a milret:kernel function",
	"hits used as a value",
}

// TestVetFixtureModule drives the tool the way CI does — through
// `go vet -vettool` — over a module seeded with one violation per
// analyzer, and asserts the run fails with each diagnostic.
func TestVetFixtureModule(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = filepath.Join("testdata", "fixturemod")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("go vet over the seeded fixture module succeeded; want failure\nstderr:\n%s", stderr.String())
	}
	for _, want := range wantFixtureDiags {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("go vet stderr missing %q\nstderr:\n%s", want, stderr.String())
		}
	}
}

// TestVetCleanModule asserts the disciplined module passes the whole
// suite with exit status 0.
func TestVetCleanModule(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = filepath.Join("testdata", "cleanmod")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet over the clean module failed: %v\nstderr:\n%s", err, stderr.String())
	}
}
