// Package bench holds the simulator's hot-path benchmark bodies in an
// importable form: bench_test.go at the repo root wraps them for `go
// test -bench`, and the allocation-regression guard in
// bench_guard_test.go re-runs the cases its baseline table names.
//
// The cases cover the layers the performance work touches: cache probes
// (block cache, infinite block cache, page cache), the DSM fault path
// broken out by miss class (cold, coherence, capacity/conflict, and the
// S-COMA relocation/replacement path), engine dispatch, columnar trace
// streaming, and the sweep macrobenchmarks: the full Figure 5 sweep
// with and without telemetry, and the scale-32 rung of the scale
// sweep.
// End-to-end timing (the paper reproduction and the query server) is
// perfbench's job, not this package's.
package bench

import (
	"io"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/memory"
	"repro/internal/trace"
)

// Case is one named benchmark body.
type Case struct {
	Name string
	// Bench is the benchmark body, runnable by testing.Benchmark or
	// under a b.Run wrapper.
	Bench func(b *testing.B)
}

// Cases returns every benchmark case in reporting order.
func Cases() []Case {
	return []Case{
		{Name: "CacheProbeBlock", Bench: CacheProbeBlock},
		{Name: "CacheProbeInfinite", Bench: CacheProbeInfinite},
		{Name: "CacheProbePage", Bench: CacheProbePage},
		{Name: "EngineDispatch", Bench: EngineDispatch},
		{Name: "FaultPathCold", Bench: FaultPathCold},
		{Name: "FaultPathCoherence", Bench: FaultPathCoherence},
		{Name: "FaultPathCapacity", Bench: FaultPathCapacity},
		{Name: "FaultPathSCOMA", Bench: FaultPathSCOMA},
		{Name: "TraceReplaySoA", Bench: TraceReplaySoA},
		{Name: "Fig5Sweep", Bench: Fig5Sweep},
		{Name: "Fig5SweepTelemetry", Bench: Fig5SweepTelemetry},
		{Name: "ScaleSweep32", Bench: ScaleSweep32},
	}
}

// lcg advances a 64-bit linear congruential generator; the top bits feed
// the probe streams so every run probes the same pseudo-random sequence.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// CacheProbeBlock probes the finite set-associative block cache with a
// pseudo-random block stream twice the cache's capacity, mixing hits,
// misses and inserts — the per-access pattern of the CC-NUMA fill path.
func CacheProbeBlock(b *testing.B) {
	c := cache.NewBlockCache(config.BlockCacheBytes, config.BlockCacheWays)
	span := uint64(2 * config.BlockCacheBytes / config.BlockBytes)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = lcg(x)
		blk := memory.Block((x >> 33) % span)
		if c.Lookup(blk) == cache.Invalid {
			c.Insert(blk, cache.Shared)
		}
	}
}

// CacheProbeInfinite probes the unbounded block cache of the
// perfect-CC-NUMA baseline, presized to the footprint like the machine
// builds it.
func CacheProbeInfinite(b *testing.B) {
	const blocks = 1 << 16
	c := cache.NewInfiniteBlockCacheSized(blocks)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = lcg(x)
		blk := memory.Block((x >> 33) % blocks)
		if c.Lookup(blk) == cache.Invalid {
			c.Insert(blk, cache.Shared)
		}
	}
}

// CacheProbePage drives the S-COMA page cache through its steady-state
// replacement cycle: touch, miss, evict LRU, allocate — the sequence the
// R-NUMA relocation path performs once the cache is warm.
func CacheProbePage(b *testing.B) {
	const capacity, span = 16, 64
	c := cache.NewPageCacheSized(capacity*config.PageBytes, span)
	// Fill every frame outside the timed region: from here on each
	// Allocate reuses the frame EvictLRU just released.
	for p := 0; p < capacity; p++ {
		c.Allocate(memory.Page(p))
	}
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = lcg(x)
		p := memory.Page((x >> 33) % span)
		if c.Touch(p) != nil {
			continue
		}
		if c.Full() {
			c.EvictLRU()
		}
		c.Allocate(p)
	}
}

// EngineDispatch measures the scheduler's in-place dispatch cycle (peek,
// advance, requeue) over the default cluster's CPU population — one such
// cycle runs per trace op.
func EngineDispatch(b *testing.B) {
	s := engine.NewScheduler(config.DefaultCluster().TotalCPUs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Peek()
		c.Clock += int64(i%7) + 1
		s.Requeue(c)
	}
}

// ---------------------------------------------------------------------
// Fault-path benchmarks: each replays a synthetic trace engineered to
// drive the DSM fault path through one miss class. One benchmark
// iteration is a full replay; the trace-ops metric gives the per-op
// scale.

// faultTrace builds a trace in which CPU 0 first-touches pages [0, P)
// before the parallel phase (homing them at node 0), re-touches them
// right after the phase marker so later touchers do not re-home them,
// and then every CPU runs the per-CPU measure stream.
func faultTrace(name string, pages int, cl config.Cluster, measure func(r *trace.Recorder, cpu int)) *trace.Trace {
	cpus := cl.TotalCPUs()
	tr := &trace.Trace{
		Name:      name,
		CPUs:      make([]trace.Stream, cpus),
		Barriers:  2,
		Footprint: uint64(pages) * config.PageBytes,
	}
	for c := 0; c < cpus; c++ {
		r := trace.NewRecorder()
		if c == 0 {
			for p := 0; p < pages; p++ {
				r.Access(memory.Page(p).Addr(), false)
			}
		}
		r.Barrier(0)
		r.Phase()
		if c == 0 {
			// Claim post-phase first touch so the measure streams below
			// see remote pages, not first-touch re-homing.
			for p := 0; p < pages; p++ {
				r.Access(memory.Page(p).Addr(), false)
			}
		}
		r.Barrier(1)
		measure(r, c)
		tr.CPUs[c] = r.Finish()
	}
	return tr
}

// touchRange reads every block of pages [lo, hi).
func touchRange(r *trace.Recorder, lo, hi int) {
	for p := lo; p < hi; p++ {
		for blk := 0; blk < config.BlocksPerPage; blk++ {
			a := memory.Page(p).Addr() + memory.Addr(blk*config.BlockBytes)
			r.Access(a, false)
		}
	}
}

var (
	faultOnce sync.Once
	coldTr    *trace.Trace
	coherTr   *trace.Trace
	capTr     *trace.Trace
)

func buildFaultTraces() {
	cl := config.DefaultCluster()
	cpus := cl.TotalCPUs()

	// Cold: every CPU reads a private span of remote blocks exactly
	// once — all measured misses are cold remote misses (plus the soft
	// page faults that map the pages).
	const coldPerCPU = 8
	coldTr = faultTrace("bench-cold", coldPerCPU*cpus, cl, func(r *trace.Recorder, cpu int) {
		touchRange(r, cpu*coldPerCPU, (cpu+1)*coldPerCPU)
	})

	// Coherence: one CPU on each of two distinct nodes write-ping-pongs
	// over a small shared span; every refetch follows an invalidation.
	const sharedPages, rounds = 4, 8
	coherTr = faultTrace("bench-coherence", sharedPages, cl, func(r *trace.Recorder, cpu int) {
		if cpu != 0 && cpu != cl.CPUsPerNode {
			return
		}
		for round := 0; round < rounds; round++ {
			for p := 0; p < sharedPages; p++ {
				for blk := 0; blk < config.BlocksPerPage; blk++ {
					a := memory.Page(p).Addr() + memory.Addr(blk*config.BlockBytes)
					r.Access(a, true)
				}
			}
		}
	})

	// Capacity/conflict: every CPU sweeps a private remote span larger
	// than its share of the node's caches, several times — after the
	// first sweep every miss is a capacity/conflict refetch.
	const capPerCPU, sweeps = 16, 4
	capTr = faultTrace("bench-capacity", capPerCPU*cpus, cl, func(r *trace.Recorder, cpu int) {
		for s := 0; s < sweeps; s++ {
			touchRange(r, cpu*capPerCPU, (cpu+1)*capPerCPU)
		}
	})
}

// faultRun replays the trace on the spec and reports per-replay metrics.
func faultRun(b *testing.B, tr *trace.Trace, spec dsm.Spec) {
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	var last int64
	for i := 0; i < b.N; i++ {
		sim, err := dsm.Run(tr, spec, cl, tm, th)
		if err != nil {
			b.Fatal(err)
		}
		last = sim.ExecCycles
	}
	b.ReportMetric(float64(tr.Ops()), "trace-ops")
	b.ReportMetric(float64(last), "sim-cycles")
}

// FaultPathCold measures the fault path on cold remote misses (plus the
// soft page faults that establish mappings) under CC-NUMA.
func FaultPathCold(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	faultRun(b, coldTr, dsm.CCNUMA())
}

// FaultPathCoherence measures the fault path on invalidation-driven
// coherence misses (dirty remote fetches and upgrades) under CC-NUMA.
func FaultPathCoherence(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	faultRun(b, coherTr, dsm.CCNUMA())
}

// FaultPathCapacity measures the fault path on capacity/conflict
// refetches under CC-NUMA.
func FaultPathCapacity(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	faultRun(b, capTr, dsm.CCNUMA())
}

// FaultPathSCOMA measures the R-NUMA relocation path on the capacity
// workload with a deliberately tiny page cache, so relocations and
// frame replacements (the pageop layer) dominate.
func FaultPathSCOMA(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	spec := dsm.RNUMA()
	spec.PageCacheBytes = 8 * config.PageBytes
	faultRun(b, capTr, spec)
}

// ---------------------------------------------------------------------
// Trace streaming benchmark: the replay engine's per-op consumption
// pattern, isolated from protocol work.

// streamSink keeps the streaming loop from being optimized away.
var streamSink uint64

// TraceReplaySoA streams the capacity trace through its columnar form:
// three dense per-CPU arrays, as Machine.Execute consumes them. Each op
// gets the dispatch-shaped work Machine.Execute does before protocol
// work begins: load the kind, steer a switch on it, fold the gap into a
// running clock and consume the arg. One iteration walks every op of
// every CPU; the trace-ops metric gives the per-op scale.
func TraceReplaySoA(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	tr := capTr
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		var clock uint64
		for c := range tr.CPUs {
			s := &tr.CPUs[c]
			kinds := s.Kinds
			gaps := s.Gaps[:len(kinds)]
			args := s.Args[:len(kinds)]
			for j, k := range kinds {
				clock += uint64(gaps[j])
				arg := args[j]
				switch k {
				case trace.Read, trace.Write:
					sink += arg ^ clock
				case trace.Barrier, trace.Lock, trace.Unlock:
					sink += arg + clock
				default:
					sink += clock
				}
			}
		}
	}
	streamSink = sink
	b.ReportMetric(float64(tr.Ops()), "trace-ops")
}

// ---------------------------------------------------------------------
// Macrobenchmark.

// fig5Scale matches benchScale in bench_test.go: one sweep iteration in
// the hundreds of milliseconds.
const fig5Scale = 8

// Fig5Sweep regenerates the paper's Figure 5 comparison (all base
// systems over the seven applications) at the benchmark scale, sharing
// generated traces across iterations via a TraceCache so the metric is
// simulator throughput, not workload generation. Each iteration gets a
// fresh run memo (TraceCache.WithFreshRuns), so every timed sweep
// simulates all of its runs. The sim-cycles metric
// is the total simulated cycles of one sweep; dividing it by seconds
// per iteration gives simulated-cycles-per-second.
func Fig5Sweep(b *testing.B) {
	traces := harness.NewTraceCache()
	var cycles int64
	run := func() {
		r, err := harness.Fig5(harness.Options{
			Scale: fig5Scale, Parallel: 4, Traces: traces.WithFreshRuns(), Out: io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					cycles += run.Stats.ExecCycles
				}
			}
		}
	}
	run() // warm the trace cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// Fig5SweepTelemetry is Fig5Sweep with time-resolved telemetry fully on
// (windowed series plus the event timeline). Its allocation budget is
// guarded; the "<10% slower with telemetry" time budget is checked by
// TestTelemetryOverheadBudget.
func Fig5SweepTelemetry(b *testing.B) {
	traces := harness.NewTraceCache()
	var cycles int64
	run := func() {
		r, err := harness.Fig5(harness.Options{
			Scale: fig5Scale, Parallel: 4, Traces: traces.WithFreshRuns(), Out: io.Discard,
			Telemetry: &harness.TelemetryOptions{Timeline: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					cycles += run.Stats.ExecCycles
				}
			}
		}
	}
	run() // warm the trace cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// ScaleSweep32 runs the scale-sweep experiment at problem scale 32 (all
// Figure 5 systems over the seven applications), the mid rung of the
// default 8..64 ladder — the macro answer to "how fast can we sweep a
// scenario end to end". Traces are shared across iterations and each
// iteration gets a fresh run memo, like Fig5Sweep, so the metric is
// simulator throughput.
func ScaleSweep32(b *testing.B) {
	traces := harness.NewTraceCache()
	var cycles int64
	run := func() {
		r, err := harness.ScaleSweep(harness.Options{
			Scales: []int{32}, Parallel: 4, Traces: traces.WithFreshRuns(), Out: io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					cycles += run.Stats.ExecCycles
				}
			}
		}
	}
	run() // warm the trace cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}
