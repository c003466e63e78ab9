package harness

import (
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TraceCache shares materialized work across experiments in two tiers,
// both in memory.
//
// The trace tier holds generated application traces. Workload
// generation is deterministic for a given apps.Key (app, cpus, scale,
// seed), and replay never mutates a trace, so one materialized trace
// can back every system and every experiment that asks for the same
// workload.
//
// The run tier is a content-addressed memo of finished simulations:
// every figure and table normalizes to perfect CC-NUMA and re-shows
// Figure 5's systems under the same base machine, so 112 of the 273
// runs of an "all" pass repeat an earlier run exactly. A run is keyed by
// its trace's apps.Key plus everything that shapes the machine (see
// runKey); runs with a telemetry collector always simulate, and failed
// runs are not kept. A memo hit
// returns the same *stats.Sim the first run produced, so callers treat
// Run.Stats as read-only.
//
// Both tiers are single-flight (flightGroup): when several workers ask
// for the same key concurrently, exactly one materializes it and the
// rest block until its result lands — without single-flight, a parallel
// sweep's workers would each regenerate the same workload and race to
// install it.
//
// Neither tier evicts: a cache lives as long as the sweep, process or
// server that owns it. Use NewTraceCache; a nil *TraceCache disables
// both tiers (every call generates and simulates afresh), which keeps
// caching strictly opt-in for callers that want cold timings.
type TraceCache struct {
	// traces is shared by every cache WithFreshRuns derives.
	traces *traceTier

	// runs memoizes finished simulations.
	runs flightGroup[runKey, *stats.Sim]

	// Run counters behind Stats(): every run requested through the
	// cache is exactly one of simulated (it ran, memo bypasses
	// included) or memoHit (a completed or in-flight memo entry
	// answered it).
	simulated atomic.Int64
	memoHits  atomic.Int64
}

// traceTier is the trace half of a TraceCache.
type traceTier struct {
	flights flightGroup[apps.Key, *trace.Trace]

	// Counters behind Stats(): how requests resolved. A request is
	// exactly one of hit (completed entry), coalesced (joined an
	// in-flight generation) or generated (led a flight whose generator
	// succeeded). inFlight tracks flights whose result has not landed
	// yet.
	hits      atomic.Int64
	coalesced atomic.Int64
	generated atomic.Int64
	inFlight  atomic.Int64
}

// TraceCacheStats is a point-in-time snapshot of the cache's request
// counters (all zero for a nil cache).
type TraceCacheStats struct {
	// Hits served from a completed entry.
	Hits int64 `json:"hits"`
	// Coalesced requests that joined another request's in-flight
	// generation instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Generated are flights that ran a workload generator.
	Generated int64 `json:"generated"`
	// InFlight is the number of generations currently running.
	InFlight int64 `json:"in_flight"`

	// RunsSimulated counts the simulations run through the cache,
	// including runs that bypass the memo.
	RunsSimulated int64 `json:"runs_simulated"`
	// MemoHits counts the runs the memo answered without simulating.
	// RunsSimulated + MemoHits is every run requested.
	MemoHits int64 `json:"memo_hits"`
}

// Stats snapshots the cache's request counters.
func (tc *TraceCache) Stats() TraceCacheStats {
	if tc == nil {
		return TraceCacheStats{}
	}
	t := tc.traces
	return TraceCacheStats{
		Hits:          t.hits.Load(),
		Coalesced:     t.coalesced.Load(),
		Generated:     t.generated.Load(),
		InFlight:      t.inFlight.Load(),
		RunsSimulated: tc.simulated.Load(),
		MemoHits:      tc.memoHits.Load(),
	}
}

// NewTraceCache returns an empty in-memory cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{traces: &traceTier{}}
}

// WithFreshRuns returns a cache that shares tc's trace tier, counters
// included, but starts with an empty run memo. Benchmarks time one
// sweep per iteration through it: traces materialize once, and every
// timed iteration simulates all of its runs. A nil cache returns nil.
func (tc *TraceCache) WithFreshRuns() *TraceCache {
	if tc == nil {
		return nil
	}
	return &TraceCache{traces: tc.traces}
}

// Len returns the number of completed cached traces.
func (tc *TraceCache) Len() int {
	if tc == nil {
		return 0
	}
	return tc.traces.flights.completed()
}

// generate returns the cached trace for (app, params), generating and
// caching it on first use; concurrent requests for the same key share
// one generation. A nil receiver generates without caching.
func (tc *TraceCache) generate(app apps.Info, p apps.Params) (*trace.Trace, error) {
	if tc == nil {
		return app.Generate(p)
	}
	t := tc.traces
	tr, how, err := t.flights.do(app.Key(p), func() (*trace.Trace, error) {
		t.inFlight.Add(1)
		defer t.inFlight.Add(-1)
		tr, err := app.Generate(p)
		if err == nil {
			t.generated.Add(1)
		}
		return tr, err
	})
	switch how {
	case flightHit:
		t.hits.Add(1)
	case flightJoined:
		t.coalesced.Add(1)
	}
	return tr, err
}
