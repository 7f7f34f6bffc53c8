// milretlint is the multichecker for the milret analyzers
// (internal/lint): guardcheck, durably, kernelpure, atomicfield,
// pkgdoc.
//
//	go vet -vettool=$(command -v milretlint) ./...
//
// It speaks cmd/go's vet unit-checker protocol (the single *.cfg
// argument), analyzing each package — test files included — with the
// export data cmd/go already compiled. This is the blocking CI mode
// and the only one: any other argument list prints the usage line.
//
// Exit status: 0 clean, 1 internal error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go probes the tool twice before using it: `-V=full` must
	// print a version line fingerprinting this build (it keys vet's
	// result cache), and `-flags` must list the tool's flags as JSON
	// (we expose none).
	for _, a := range args {
		if a == "-V=full" || a == "-V" {
			printVersion()
			return 0
		}
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnitChecker(args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v milretlint) <packages>")
	return 1
}

// printVersion emits "<name> version devel buildID=<sha256-of-binary>"
// — the shape cmd/go's toolID parser expects, with a fingerprint that
// changes whenever the tool is rebuilt so stale vet caches cannot
// survive an analyzer change.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil))
}
