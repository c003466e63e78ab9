package apps

import (
	"testing"

	"repro/internal/trace"
)

func TestRegistryHasPaperApps(t *testing.T) {
	paper := Paper()
	if len(paper) != 7 {
		t.Fatalf("paper app count = %d, want 7", len(paper))
	}
	want := []string{"barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace"}
	for i, app := range paper {
		if app.Name != want[i] {
			t.Errorf("paper[%d] = %s, want %s", i, app.Name, want[i])
		}
		if app.Description == "" || app.Input == "" {
			t.Errorf("%s: missing metadata", app.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown app resolved")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All() not sorted at %d: %s >= %s", i, all[i-1].Name, all[i].Name)
		}
	}
}

// generateAll builds every paper app at test scale.
func generateAll(t *testing.T, scale int) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, app := range Paper() {
		tr, err := app.Generate(Params{CPUs: 32, Scale: scale})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		out[app.Name] = tr
	}
	return out
}

func TestAllTracesValidate(t *testing.T) {
	for name, tr := range generateAll(t, 8) {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tr.NumCPUs() != 32 {
			t.Errorf("%s: %d cpus", name, tr.NumCPUs())
		}
		if tr.Footprint == 0 {
			t.Errorf("%s: zero footprint", name)
		}
		if tr.Ops() == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
}

func TestAllTracesHavePhaseMarker(t *testing.T) {
	for name, tr := range generateAll(t, 8) {
		for cpu, ops := range tr.CPUs {
			found := false
			for _, k := range ops.Kinds {
				if k == trace.Phase {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: cpu %d has no phase marker", name, cpu)
			}
		}
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	for _, app := range Paper() {
		a, err := app.Generate(Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := app.Generate(Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ops() != b.Ops() {
			t.Errorf("%s: op counts differ: %d vs %d", app.Name, a.Ops(), b.Ops())
			continue
		}
		for cpu := range a.CPUs {
			for i := 0; i < a.CPUs[cpu].Len(); i++ {
				if a.CPUs[cpu].Op(i) != b.CPUs[cpu].Op(i) {
					t.Errorf("%s: cpu %d op %d differs", app.Name, cpu, i)
					break
				}
			}
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for name, tr := range generateAll(t, 8) {
		blocks := tr.Footprint / 64
		for cpu, ops := range tr.CPUs {
			for i, k := range ops.Kinds {
				if k != trace.Read && k != trace.Write {
					continue
				}
				if ops.Args[i] >= blocks {
					t.Fatalf("%s: cpu %d op %d touches block %d beyond footprint (%d blocks)",
						name, cpu, i, ops.Args[i], blocks)
				}
			}
		}
	}
}

func TestMostCPUsDoWork(t *testing.T) {
	// The decompositions must spread memory operations over the
	// processors. At reduced test scales some block decompositions
	// legitimately leave processors idle (e.g. a 6x6-block LU cannot
	// occupy 32 owners), so require at least half the machine working;
	// full-scale inputs cover all 32.
	for name, tr := range generateAll(t, 4) {
		active := 0
		for _, ops := range tr.CPUs {
			for _, k := range ops.Kinds {
				if k == trace.Read || k == trace.Write {
					active++
					break
				}
			}
		}
		if active < tr.NumCPUs()/2 {
			t.Errorf("%s: only %d of %d cpus issue memory ops", name, active, tr.NumCPUs())
		}
	}
}

func TestScaleShrinksWork(t *testing.T) {
	for _, app := range Paper() {
		big, err := app.Generate(Params{CPUs: 32, Scale: 4})
		if err != nil {
			t.Fatal(err)
		}
		small, err := app.Generate(Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		if small.Ops() >= big.Ops() {
			t.Errorf("%s: scale 8 (%d ops) not smaller than scale 4 (%d ops)",
				app.Name, small.Ops(), big.Ops())
		}
	}
}

// TestSeedSensitivity pins which generators honor Params.Seed. barnes,
// fmm, radix and raytrace draw their inputs from a seeded generator;
// cholesky, lu and ocean build the same trace for every seed (their
// inputs come from fixed constants), so seeds 0 and 1 must differ for
// the first group and match exactly for the second. Changing either
// group is then a deliberate act that updates this table.
func TestSeedSensitivity(t *testing.T) {
	honors := map[string]bool{
		"barnes": true, "fmm": true, "radix": true, "raytrace": true,
		"cholesky": false, "lu": false, "ocean": false,
	}
	for _, app := range Paper() {
		want, ok := honors[app.Name]
		if !ok {
			t.Errorf("%s: no seed expectation", app.Name)
			continue
		}
		a, err := app.Generate(Params{CPUs: 32, Scale: 64, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		b, err := app.Generate(Params{CPUs: 32, Scale: 64, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if differ := !a.Equal(b); differ != want {
			t.Errorf("%s: seeds 0 and 1 give different traces = %v, want %v", app.Name, differ, want)
		}
	}
}

// TestKeyHashIsStable pins the workload content address. Run manifests
// record it (telemetry.TraceRef.Hash) and the run memo keys on the
// Key, so a change here makes old and new manifests disagree about
// identical workloads.
func TestKeyHashIsStable(t *testing.T) {
	for _, c := range []struct {
		key  Key
		want string
	}{
		{Key{App: "lu", CPUs: 32, Scale: 8, Seed: 0}, "2aceab47f14c212287b13b3f1d9bf2b8.trace"},
		{Key{App: "radix", CPUs: 32, Scale: 4, Seed: 7}, "0279f8e62ea00359b0ec6385d5d13b27.trace"},
	} {
		if got := c.key.Hash(); got != c.want {
			t.Errorf("%+v.Hash() = %s, want %s", c.key, got, c.want)
		}
	}
}
