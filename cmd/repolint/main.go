// Command repolint runs the repository's analyzer suite (internal/lint)
// over Go packages: determinism (mapiter, walltime), event-time
// discipline (eventtime), hot-path hygiene (hotalloc) and the telemetry
// nil-guard contract (nilhook).
//
// Standalone, from the module root:
//
//	go run ./cmd/repolint ./...
//
// Exit status is 0 when the tree is clean, 2 when any analyzer reports
// a finding, and 1 on a load or typecheck error. The same suite gates
// go test through TestRepolintClean in the root lint_test.go.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run loads the given package patterns (default ./...) from the current
// directory and applies the full suite.
func run(args []string) int {
	fs := flag.NewFlagSet("repolint", flag.ExitOnError)
	fs.Usage = usage
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, diags, err := lint.Run(".", lint.Suite(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", relPos(pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: repolint [packages]\n\nAnalyzers:\n")
	for _, a := range lint.Suite() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
}

// relPos renders a position with a working-directory-relative filename
// when possible.
func relPos(pos token.Position) string {
	name := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", name, pos.Line, pos.Column)
}
