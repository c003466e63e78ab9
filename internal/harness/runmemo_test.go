package harness

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// memoFixture materializes a small workload for direct simulate calls.
func memoFixture(t *testing.T, tc *TraceCache) (apps.Key, *trace.Trace) {
	t.Helper()
	app, err := apps.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	p := apps.Params{CPUs: config.DefaultCluster().TotalCPUs(), Scale: 64}
	tr, err := tc.generate(app, p)
	if err != nil {
		t.Fatal(err)
	}
	return app.Key(p), tr
}

// TestRunMemo pins what the run tier shares and what it never shares.
func TestRunMemo(t *testing.T) {
	tc := NewTraceCache()
	tk, tr := memoFixture(t, tc)
	tm, th := config.Default(), config.DefaultThresholds()
	cl := config.DefaultCluster()
	ccnuma := systemRun{spec: dsm.CCNUMA(), tm: tm, th: th}
	audited := dsm.RunOptions{Audit: true}

	call := func(s systemRun, cl config.Cluster, ro dsm.RunOptions) bool {
		t.Helper()
		_, memo, err := tc.simulate(tk, tr, s, cl, ro)
		if err != nil {
			t.Fatal(err)
		}
		return memo
	}
	check := func(step string, simulated, hits int64) {
		t.Helper()
		if s := tc.Stats(); s.RunsSimulated != simulated || s.MemoHits != hits {
			t.Fatalf("%s: stats %+v, want %d simulated, %d memo hits", step, s, simulated, hits)
		}
	}

	sim1, _, err := tc.simulate(tk, tr, ccnuma, cl, audited)
	if err != nil {
		t.Fatal(err)
	}
	sim2, memo, err := tc.simulate(tk, tr, ccnuma, cl, audited)
	if err != nil || !memo || sim2 != sim1 {
		t.Fatalf("repeat run: memo %v, same stats %v, err %v; want a memo hit on the first run's stats", memo, sim2 == sim1, err)
	}
	check("repeat", 1, 1)

	// The ideal crossbar keys alike whether named or defaulted.
	named := cl
	named.Net.Topology = config.TopoCrossbar
	if !call(ccnuma, named, audited) {
		t.Error(`topology "crossbar" missed the memo entry of topology ""`)
	}
	check("crossbar", 1, 2)

	// Every keyed input separates runs, each Spec flag included.
	ring := cl
	ring.Net.Topology = config.TopoRing
	deferHot := dsm.MigRep()
	deferHot.DeferHotRoutes = true
	for _, c := range []struct {
		name string
		s    systemRun
		cl   config.Cluster
		ro   dsm.RunOptions
	}{
		{"system", systemRun{spec: dsm.MigRep(), tm: tm, th: th}, cl, audited},
		{"DeferHotRoutes", systemRun{spec: deferHot, tm: tm, th: th}, cl, audited},
		{"timing", systemRun{spec: dsm.CCNUMA(), tm: tm.ScaleNetwork(4), th: th}, cl, audited},
		{"thresholds", systemRun{spec: dsm.CCNUMA(), tm: tm, th: config.SlowThresholds()}, cl, audited},
		{"fabric", ccnuma, ring, audited},
		{"audit", ccnuma, cl, dsm.RunOptions{}},
	} {
		if call(c.s, c.cl, c.ro) {
			t.Errorf("a run differing only in %s was a memo hit", c.name)
		}
	}
	check("distinct inputs", 7, 2)

	// The contention-gated system is memoized like any other.
	contend := systemRun{spec: dsm.ContentionMigRep(), tm: tm, th: th}
	if call(contend, cl, audited) {
		t.Error("the first ContentionMigRep run was a memo hit")
	}
	if !call(contend, cl, audited) {
		t.Error("a repeated ContentionMigRep run missed the memo")
	}
	check("contention-gated", 8, 3)

	// Telemetry runs and failed runs always simulate.
	for i := 0; i < 2; i++ {
		col := telemetry.New(telemetry.Config{})
		if call(ccnuma, cl, dsm.RunOptions{Audit: true, Telemetry: col}) {
			t.Error("a telemetry run was a memo hit")
		}
		bad := systemRun{spec: dsm.Spec{Name: "bad", BlockCacheBytes: -1}, tm: tm, th: th}
		if _, memo, err := tc.simulate(tk, tr, bad, cl, audited); err == nil || memo {
			t.Errorf("invalid spec: memo %v, err %v; want a fresh failure", memo, err)
		}
	}
	check("bypasses", 12, 3)

	// A fresh run tier shares the traces but none of the runs.
	fresh := tc.WithFreshRuns()
	if _, memo, err := fresh.simulate(tk, tr, ccnuma, cl, audited); err != nil || memo {
		t.Errorf("fresh run tier: memo %v, err %v; want a simulation", memo, err)
	}
	if s := fresh.Stats(); s.RunsSimulated != 1 || s.Generated != 1 {
		t.Errorf("fresh run tier stats %+v, want 1 run simulated and the shared tier's 1 generated trace", s)
	}

	// A nil cache simulates every time and counts nothing.
	var none *TraceCache
	if _, memo, err := none.simulate(tk, tr, ccnuma, cl, audited); err != nil || memo {
		t.Errorf("nil cache: memo %v, err %v", memo, err)
	}
}

// TestRunMemoSingleFlight: concurrent requests for one run simulate it
// once and all receive its stats.
func TestRunMemoSingleFlight(t *testing.T) {
	tc := NewTraceCache()
	tk, tr := memoFixture(t, tc)
	s := systemRun{spec: dsm.RNUMA(), tm: config.Default(), th: config.DefaultThresholds()}
	const workers = 8
	var wg sync.WaitGroup
	gate := make(chan struct{})
	got := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			sim, _, err := tc.simulate(tk, tr, s, config.DefaultCluster(), dsm.RunOptions{})
			if err != nil {
				t.Error(err)
			}
			got[i] = sim
		}(i)
	}
	close(gate)
	wg.Wait()
	if st := tc.Stats(); st.RunsSimulated != 1 || st.MemoHits != workers-1 {
		t.Errorf("stats %+v, want 1 simulated and %d memo hits", st, workers-1)
	}
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Errorf("worker %d got different stats", i)
		}
	}
}

// progressLog collects Options.Progress lines, which the pool's workers
// write concurrently.
type progressLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *progressLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *progressLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestAllPassSimulatesEachDistinctRunOnce: one pass of every experiment
// through one cache requests 273 runs and simulates the 161 distinct
// ones; the progress lines mark the 112 memo hits.
func TestAllPassSimulatesEachDistinctRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the full experiment pass in -short mode")
	}
	var progress progressLog
	o := Options{Scale: 64, Parallel: 2, Audit: true, Traces: NewTraceCache(), Progress: &progress, Out: io.Discard}
	requested := 0
	for _, name := range Experiments() {
		r, err := RunByName(name, o)
		if err != nil {
			t.Fatal(err)
		}
		requested += len(r.AppOrder) * (len(r.Systems) + 1)
	}
	s := o.Traces.Stats()
	if requested != 273 || s.RunsSimulated != 161 || s.MemoHits != 112 {
		t.Errorf("%d runs requested, stats %+v; want 273 = 161 simulated + 112 memo hits", requested, s)
	}
	lines := strings.Count(progress.String(), "# run ")
	memo := strings.Count(progress.String(), "s (memo)\n")
	if lines != 273 || memo != 112 {
		t.Errorf("progress: %d run lines, %d marked (memo); want 273 and 112", lines, memo)
	}
}

// TestExperimentStopsAfterFirstFailure: once a run fails, the pool
// dispatches no further runs. Only the baseline (already running) and
// the failing run may start; the twenty valid systems queued behind
// them must not.
func TestExperimentStopsAfterFirstFailure(t *testing.T) {
	tm, th := config.Default(), config.DefaultThresholds()
	systems := []systemRun{{spec: dsm.Spec{Name: "bad", BlockCacheBytes: -1}, tm: tm, th: th}}
	for i := 0; i < 20; i++ {
		systems = append(systems, systemRun{spec: dsm.CCNUMA(), tm: tm, th: th, label: "CC-NUMA-" + string(rune('a'+i))})
	}
	var progress progressLog
	_, err := runExperiment("stop", systems, Options{
		Scale: 64, Apps: []string{"radix", "lu"}, Parallel: 2, Progress: &progress, Out: io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "negative block cache") {
		t.Fatalf("err = %v, want the invalid spec's error", err)
	}
	if n := strings.Count(progress.String(), "# run "); n > 2 {
		t.Errorf("%d runs completed after the first failure, want at most 2:\n%s", n, progress.String())
	}
}
