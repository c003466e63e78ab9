package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenOptions is the fixed configuration the golden reports were
// captured under: two apps at test scale, audit on. The reports are
// fully deterministic, so any byte of drift is a real behavior change.
func goldenOptions(buf *bytes.Buffer) Options {
	return Options{Scale: 8, Apps: []string{"radix", "lu"}, Parallel: 4, Audit: true, Out: buf}
}

// TestGoldenReports locks every experiment's text report and CSV rows
// byte-for-byte. The CSV carries exec_cycles and traffic_bytes, so it
// catches timing or accounting drift the normalized tables round away.
// The fig5 and fig8 text files were captured before the Policy/
// registry redesign, so a passing run proves the redesigned systems
// reproduce the pre-existing reports exactly. Regenerate deliberately
// with `go test ./internal/harness -run Golden -update`.
func TestGoldenReports(t *testing.T) {
	for _, name := range Experiments() {
		t.Run(name, func(t *testing.T) {
			var text, csv bytes.Buffer
			r, err := RunByName(name, goldenOptions(&text))
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteCSVHeader(&csv); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteCSVRows(&csv); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, name+".golden", text.Bytes())
			checkGolden(t, name, name+".csv.golden", csv.Bytes())
		})
	}
}

func checkGolden(t *testing.T, name, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s\n%s",
			name, path, got, want, firstDiff(string(got), string(want)))
	}
}

// firstDiff points at the first differing line, which beats eyeballing
// two whole reports.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first difference at line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("reports differ in length: got %d lines, want %d", len(g), len(w))
}
