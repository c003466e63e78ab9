package harness

import (
	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runKey content-addresses one simulation: the workload's apps.Key
// plus every input that shapes the machine replaying it. Two runs with
// equal keys are the same deterministic simulation. It holds the whole
// dsm.Spec, so a field added there keys automatically, and
// flightGroup's comparable constraint keeps every field keyable.
type runKey struct {
	trace apps.Key
	spec  dsm.Spec
	// cl carries the fabric with its topology canonicalized through
	// Network.Kind, so "" and "crossbar" key alike.
	cl    config.Cluster
	tm    config.Timing
	th    config.Thresholds
	audit bool
}

// simulate returns the statistics of replaying tr (the workload tk
// addresses) on s over cl, and whether the run memo answered instead of
// a simulation. Runs with a telemetry collector always simulate, as
// does every run through a nil cache.
func (tc *TraceCache) simulate(tk apps.Key, tr *trace.Trace, s systemRun, cl config.Cluster, ro dsm.RunOptions) (*stats.Sim, bool, error) {
	run := func() (*stats.Sim, error) {
		return dsm.RunWithOptions(tr, s.spec, cl, s.tm, s.th, ro)
	}
	if tc == nil || ro.Telemetry != nil {
		if tc != nil {
			tc.simulated.Add(1)
		}
		sim, err := run()
		return sim, false, err
	}
	kcl := cl
	kcl.Net.Topology = cl.Net.Kind()
	key := runKey{trace: tk, spec: s.spec, cl: kcl, tm: s.tm, th: s.th, audit: ro.Audit}
	sim, how, err := tc.runs.do(key, func() (*stats.Sim, error) {
		tc.simulated.Add(1)
		return run()
	})
	memo := how != flightLed
	if memo {
		tc.memoHits.Add(1)
	}
	return sim, memo, err
}
