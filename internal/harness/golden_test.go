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
//
// The six experiments share one TraceCache, as an "all" pass of
// cmd/experiments does, so most of their baselines and Figure 5
// systems are run-memo hits: the reports prove a hit renders the same
// bytes as a simulation, and the run counters are pinned exactly.
func TestGoldenReports(t *testing.T) {
	traces := NewTraceCache()
	var requested, ran int
	for _, name := range Experiments() {
		t.Run(name, func(t *testing.T) {
			var text, csv bytes.Buffer
			o := goldenOptions(&text)
			o.Traces = traces
			r, err := RunByName(name, o)
			if err != nil {
				t.Fatal(err)
			}
			ran++
			requested += len(r.AppOrder) * (len(r.Systems) + 1) // + the baseline
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
	if ran < len(Experiments()) {
		return // a -run filter selected a subset: the counts below do not apply
	}
	// Per app: 39 runs requested; 16 repeat an earlier experiment's run
	// (5 baselines, table4's 3 systems, fig6's 2 fast ones, fig8's 3 and
	// toposweep's 3 crossbar ones).
	s := traces.Stats()
	if requested != 78 || s.RunsSimulated+s.MemoHits != 78 || s.RunsSimulated != 46 || s.MemoHits != 32 {
		t.Errorf("run counts: %d requested by the results, cache stats %+v; want 78 requested = 46 simulated + 32 memo hits",
			requested, s)
	}
}

// TestGuestSystemsGolden pins the two registered systems no paper
// experiment runs, the contention-gated "migrep-contend" and "scoma",
// across every fabric of the topology sweep. Its own TraceCache keeps
// TestGoldenReports' run counts independent of it.
func TestGuestSystemsGolden(t *testing.T) {
	var text, csv bytes.Buffer
	o := goldenOptions(&text)
	o.Systems = []string{"migrep-contend", "scoma"}
	o.Traces = NewTraceCache()
	r, err := TopoSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVHeader(&csv); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSVRows(&csv); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "toposweep", "guests.golden", text.Bytes())
	checkGolden(t, "toposweep", "guests.csv.golden", csv.Bytes())
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
