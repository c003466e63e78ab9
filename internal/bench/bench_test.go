package bench

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
)

// runTrace replays one of the fault benchmark traces and returns its
// statistics.
func runTrace(t *testing.T, name string, spec dsm.Spec) *stats.Sim {
	t.Helper()
	faultOnce.Do(buildFaultTraces)
	cl := config.DefaultCluster()
	var trc = coldTr
	switch name {
	case "cold":
		trc = coldTr
	case "coherence":
		trc = coherTr
	case "capacity":
		trc = capTr
	default:
		t.Fatalf("unknown trace %q", name)
	}
	if err := trc.Validate(); err != nil {
		t.Fatalf("trace %s invalid: %v", name, err)
	}
	sim, err := dsm.RunWithOptions(trc, spec, cl, config.Default(), config.DefaultThresholds(),
		dsm.RunOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestFaultTracesDriveIntendedMissClasses pins the benchmark traces to
// their advertised miss profiles: each fault-path benchmark must
// actually spend its remote misses in the class it is named for,
// otherwise their allocation baselines guard the wrong path.
func TestFaultTracesDriveIntendedMissClasses(t *testing.T) {
	cold := runTrace(t, "cold", dsm.CCNUMA())
	if c, tot := cold.RemoteMissesByClass(stats.Cold), cold.TotalRemoteMisses(); tot == 0 || c*10 < tot*9 {
		t.Errorf("cold trace: %d/%d remote misses cold, want >= 90%%", c, tot)
	}

	coher := runTrace(t, "coherence", dsm.CCNUMA())
	if c, tot := coher.RemoteMissesByClass(stats.Coherence), coher.TotalRemoteMisses(); tot == 0 || c*2 < tot {
		t.Errorf("coherence trace: %d/%d remote misses coherence, want majority", c, tot)
	}

	capa := runTrace(t, "capacity", dsm.CCNUMA())
	if c, tot := capa.RemoteMissesByClass(stats.CapacityConflict), capa.TotalRemoteMisses(); tot == 0 || c*2 < tot {
		t.Errorf("capacity trace: %d/%d remote misses capacity/conflict, want majority", c, tot)
	}

	// The S-COMA variant must actually exercise the relocation and
	// replacement machinery of the pageop layer.
	spec := dsm.RNUMA()
	spec.PageCacheBytes = 8 * config.PageBytes
	scoma := runTrace(t, "capacity", spec)
	if scoma.PageOpsByKind(stats.Relocation) == 0 || scoma.PageOpsByKind(stats.Replacement) == 0 {
		t.Errorf("scoma trace: relocations=%d replacements=%d, want both > 0",
			scoma.PageOpsByKind(stats.Relocation), scoma.PageOpsByKind(stats.Replacement))
	}
}
