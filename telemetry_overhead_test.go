package repro

import (
	"io"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestTelemetryOverheadBudget pins the observability cost ceiling: the
// Figure 5 sweep with time-resolved telemetry fully on (windowed series
// plus the event timeline) must run within 10% of the telemetry-off
// wall time. Each variant gets the minimum of several alternating
// iterations over a shared trace tier, so the comparison measures the
// simulator, not generation or a one-off scheduling hiccup. Every
// iteration starts an empty run memo: telemetry runs bypass the memo,
// so a shared one would time memo hits against simulations; a small
// absolute allowance keeps the threshold meaningful if the sweep ever
// gets very fast.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-time budget in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping wall-time budget under the race detector")
	}

	traces := harness.NewTraceCache()
	sweep := func(tel *harness.TelemetryOptions) time.Duration {
		start := time.Now()
		if _, err := harness.Fig5(harness.Options{
			Scale: 8, Parallel: 4, Traces: traces.WithFreshRuns(), Out: io.Discard, Telemetry: tel,
		}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	sweep(nil) // warm the trace cache outside the measured iterations

	const iters = 4
	timeline := &harness.TelemetryOptions{Timeline: true}
	off, on := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < iters; i++ {
		if d := sweep(nil); d < off {
			off = d
		}
		if d := sweep(timeline); d < on {
			on = d
		}
	}

	limit := off + off/10 + 50*time.Millisecond
	t.Logf("fig5 sweep: telemetry off %v, on %v (limit %v)", off, on, limit)
	if on > limit {
		t.Errorf("telemetry-on sweep took %v, budget is %v (off %v + 10%%): collection left the nil-check fast path",
			on, limit, off)
	}
}
