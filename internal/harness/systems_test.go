package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSystemsOverride runs Figure 5 on a caller-chosen system list,
// including the contention-aware MigRep that only exists as a registry
// entry: the harness must resolve it by name and report it like any
// paper system. The list also names the normalization baseline itself,
// which must normalize to exactly 1.
func TestSystemsOverride(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf, "radix")
	o.Systems = []string{"ccnuma", "migrep-contend", "perfect"}
	r, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 3 || r.Systems[0] != "CC-NUMA" || r.Systems[1] != "MigRep-Cont" || r.Systems[2] != "Perfect" {
		t.Fatalf("systems = %v", r.Systems)
	}
	for _, sys := range r.Systems {
		if r.Norm("radix", sys) <= 0 {
			t.Errorf("%s: nonpositive normalized time", sys)
		}
	}
	if got := r.Norm("radix", "Perfect"); got != 1 {
		t.Errorf("Perfect normalized = %v, want exactly 1", got)
	}
	if !strings.Contains(buf.String(), "MigRep-Cont") {
		t.Error("report does not mention the overridden system")
	}
}

// TestSimulateNormalizes runs lu on CC-NUMA and on the Perfect
// baseline: both must report execution times, CC-NUMA a positive
// normalized time, and Perfect exactly 1.
func TestSimulateNormalizes(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf, "lu")
	o.Systems = []string{"ccnuma", "perfect"}
	r, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.ExecCycles <= 0 {
			t.Errorf("%s: missing execution time", rec.System)
		}
	}
	if got := r.Norm("lu", "CC-NUMA"); got <= 0 {
		t.Errorf("CC-NUMA normalized = %v", got)
	}
	if got := r.Norm("lu", "Perfect"); got != 1 {
		t.Errorf("Perfect normalized = %v, want 1", got)
	}
}

// TestSystemsOverrideEverywhere exercises the override on every
// experiment, since each resolves its own defaults.
func TestSystemsOverrideEverywhere(t *testing.T) {
	for _, name := range Experiments() {
		var buf bytes.Buffer
		o := opts(&buf)
		o.Systems = []string{"ccnuma", "rnuma"}
		r, err := RunByName(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Records()) == 0 {
			t.Errorf("%s: no records", name)
		}
	}
}

// TestUnknownSystemListsRegistry pins the error contract: an unknown
// system name must fail up front with the registered names, not deep
// inside a run.
func TestUnknownSystemListsRegistry(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf)
	o.Systems = []string{"nosuch-system"}
	_, err := Fig5(o)
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	for _, want := range []string{"nosuch-system", "ccnuma", "migrep-contend", "rnuma-half-migrep"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestUnknownAppListsRegistry is the same contract for applications.
func TestUnknownAppListsRegistry(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Scale: 8, Apps: []string{"nosuch-app"}, Out: &buf, Audit: true}
	_, err := Fig5(o)
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, want := range []string{"nosuch-app", "radix", "lu"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestWriteJSON round-trips the structured records through the JSON
// renderer.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	r, err := Fig5(opts(&buf, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := r.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(recs) != len(r.Systems) {
		t.Fatalf("got %d records, want %d", len(recs), len(r.Systems))
	}
	for _, rec := range recs {
		if rec.Experiment != "fig5" || rec.App != "radix" {
			t.Errorf("bad record labels: %+v", rec)
		}
		if rec.Fabric != "crossbar" {
			t.Errorf("fabric = %q, want crossbar", rec.Fabric)
		}
		if rec.Normalized <= 0 || rec.ExecCycles <= 0 {
			t.Errorf("degenerate record: %+v", rec)
		}
		if rec.TrafficBytes <= 0 && rec.System != "Perfect" {
			t.Errorf("%s: no traffic recorded", rec.System)
		}
	}
}

// TestTopoSweepWithContention runs the contention-aware policy where
// it matters — on real fabrics — and checks its records carry
// interconnect stats.
func TestTopoSweepWithContention(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf, "radix")
	o.Systems = []string{"migrep", "migrep-contend"}
	r, err := TopoSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems x 4 fabrics.
	if len(r.Systems) != 8 {
		t.Fatalf("systems = %v", r.Systems)
	}
	for _, rec := range r.Records() {
		if rec.MaxLinkBytes <= 0 {
			t.Errorf("%s@%s: no link stats", rec.System, rec.Fabric)
		}
	}
	if !strings.Contains(buf.String(), "MigRep-Cont@ring") {
		t.Error("sweep report missing the contention system on the ring")
	}
}
