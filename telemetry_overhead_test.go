//go:build linux

package repro

import (
	"io"
	"syscall"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestTelemetryOverheadBudget pins the observability cost ceiling: the
// Figure 5 sweep with time-resolved telemetry fully on (windowed series
// plus the event timeline) must cost within 10% of the telemetry-off
// CPU time. Each variant gets the minimum of several alternating
// iterations over a shared trace tier, so the comparison measures the
// simulator, not generation or a one-off scheduling hiccup. Every
// iteration starts an empty run memo: telemetry runs bypass the memo,
// so a shared one would time memo hits against simulations; a small
// absolute allowance keeps the threshold meaningful if the sweep ever
// gets very fast.
//
// The sweeps are timed by this process's CPU time, not wall time.
// Under `go test ./...` other test binaries share the cores, which
// stretches the wall time of whichever sweep they overlap but adds
// nothing to the CPU time this process spends.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CPU-time budget in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping CPU-time budget under the race detector")
	}

	traces := harness.NewTraceCache()
	sweep := func(tel *harness.TelemetryOptions) time.Duration {
		start := cpuTime(t)
		if _, err := harness.Fig5(harness.Options{
			Scale: 8, Parallel: 4, Traces: traces.WithFreshRuns(), Out: io.Discard, Telemetry: tel,
		}); err != nil {
			t.Fatal(err)
		}
		return cpuTime(t) - start
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
	t.Logf("fig5 sweep CPU time: telemetry off %v, on %v (limit %v)", off, on, limit)
	if on > limit {
		t.Errorf("telemetry-on sweep took %v, budget is %v (off %v + 10%%): collection left the nil-check fast path",
			on, limit, off)
	}
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
