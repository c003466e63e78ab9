package repro

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/bench"
)

// allocBaseline is the allocation budget of one guarded benchmark case:
// allocs/op and bytes/op as last deliberately measured.
type allocBaseline struct{ allocs, bytes int64 }

// guardBaselines maps each guarded internal/bench case to its baseline.
// Its keys are the guarded set.
var guardBaselines = map[string]allocBaseline{
	"CacheProbeBlock":    {allocs: 0, bytes: 0},
	"CacheProbeInfinite": {allocs: 0, bytes: 0},
	"CacheProbePage":     {allocs: 0, bytes: 0},
	"EngineDispatch":     {allocs: 0, bytes: 0},
	"FaultPathCold":      {allocs: 393, bytes: 744035},
	"FaultPathCoherence": {allocs: 387, bytes: 187402},
	"FaultPathCapacity":  {allocs: 395, bytes: 1309569},
	"FaultPathSCOMA":     {allocs: 437, bytes: 1291279},
	"TraceReplaySoA":     {allocs: 0, bytes: 0},
	"Fig5Sweep":          {allocs: 28312, bytes: 17227008},
	"Fig5SweepTelemetry": {allocs: 32440, bytes: 18422432},
}

// TestBenchAllocationGuard re-runs the guarded hot-path benchmarks
// (cache probes, fault path per miss class, engine dispatch, trace
// streaming, the Figure 5 macros) and fails if allocs/op OR bytes/op
// regresses more than 20% over guardBaselines. ns/op is deliberately
// not guarded — wall time varies with the host — but allocation counts
// and sizes are deterministic for a fixed code path, so a jump means an
// allocation crept back into a hot loop (or an existing one got fatter,
// which allocs/op alone misses).
//
// To rebase deliberately, when a change legitimately shifts a budget,
// copy the allocs/op and bytes/op this test logs into guardBaselines.
func TestBenchAllocationGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark guard in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping benchmark guard under the race detector (instrumentation allocates)")
	}
	if len(guardBaselines) == 0 {
		t.Fatal("guardBaselines names no guarded benchmarks")
	}
	known := map[string]bool{}
	for _, c := range bench.Cases() {
		known[c.Name] = true
	}
	for _, name := range slices.Sorted(maps.Keys(guardBaselines)) {
		if !known[name] {
			t.Errorf("guardBaselines names %s, which is no case in bench.Cases()", name)
		}
	}

	for _, c := range bench.Cases() {
		want, ok := guardBaselines[c.Name]
		if !ok {
			continue
		}
		r := testing.Benchmark(c.Bench)
		got := allocBaseline{allocs: r.AllocsPerOp(), bytes: r.AllocedBytesPerOp()}
		// 20% headroom plus one absolute alloc, so zero-alloc baselines
		// tolerate nothing but noise-level drift.
		if limit := want.allocs + want.allocs/5 + 1; got.allocs > limit {
			t.Errorf("%s: %d allocs/op, baseline %d (limit %d): an allocation crept into the hot path",
				c.Name, got.allocs, want.allocs, limit)
		} else {
			t.Logf("%s: %d allocs/op (baseline %d)", c.Name, got.allocs, want.allocs)
		}
		// Same 20% tolerance on bytes, with one cache line of absolute
		// headroom: size-class rounding can wobble small baselines by a
		// few bytes without any code change.
		if limit := want.bytes + want.bytes/5 + 64; got.bytes > limit {
			t.Errorf("%s: %d bytes/op, baseline %d (limit %d): hot-path allocations got fatter",
				c.Name, got.bytes, want.bytes, limit)
		} else {
			t.Logf("%s: %d bytes/op (baseline %d)", c.Name, got.bytes, want.bytes)
		}
	}
}
