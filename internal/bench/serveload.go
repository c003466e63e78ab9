package bench

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
)

// serveLoad sizing: each iteration drives one complete mixed hot/cold
// load run — loadConcurrency clients issuing loadRequests queries drawn
// from a pool of loadDistinct distinct seeds. The server is rebuilt per
// iteration (empty result cache) while the trace cache is shared, so
// every iteration pays loadDistinct genuine cold simulations and serves
// the rest from the memoization and coalescing layers: the steady
// mixed-traffic profile the serving stack exists for.
const (
	loadRequests    = 2000
	loadConcurrency = 1000
	loadDistinct    = 8
	loadScale       = 64
)

// ServeLoad measures the query server end to end over real HTTP: QPS,
// p50/p99 latency and cache hit rate under loadConcurrency concurrent
// clients. Unguarded — the numbers characterize the serving stack's
// throughput, not a per-op allocation budget.
func ServeLoad(b *testing.B) {
	queries := make([]harness.Query, loadDistinct)
	for i := range queries {
		queries[i] = harness.Query{
			Experiment: "fig5",
			Apps:       []string{"radix"},
			Systems:    []string{"ccnuma"},
			Scale:      loadScale,
			Seed:       uint64(i + 1),
		}.Normalize()
		if err := queries[i].Validate(); err != nil {
			b.Fatal(err)
		}
	}
	// Shared traces with a fresh run memo per server: iterations
	// re-simulate, not re-generate.
	traces := harness.NewTraceCache()

	var report loadtest.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := serve.New(serve.Config{
			CacheEntries: loadDistinct,
			QueueDepth:   loadRequests,
			Traces:       traces.WithFreshRuns(),
			Commit:       "bench",
		})
		ts := httptest.NewServer(srv)
		r, err := loadtest.Run(context.Background(), loadtest.Options{
			BaseURL:     ts.URL,
			Queries:     queries,
			Requests:    loadRequests,
			Concurrency: loadConcurrency,
		})
		ts.Close()
		srv.Drain()
		if err != nil {
			b.Fatal(err)
		}
		if r.Errors > 0 || r.Rejected > 0 {
			b.Fatalf("load run: %d errors, %d rejected of %d requests", r.Errors, r.Rejected, r.Requests)
		}
		report = r
	}
	b.ReportMetric(report.QPS, "load-qps")
	b.ReportMetric(report.P50ms, "load-p50-ms")
	b.ReportMetric(report.P99ms, "load-p99-ms")
	b.ReportMetric(report.HitRate, "load-hit-rate")
}
