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
// equal keys are the same deterministic simulation.
type runKey struct {
	trace apps.Key
	spec  specKey
	// cl carries the fabric with its topology canonicalized through
	// Network.Kind, so "" and "crossbar" key alike.
	cl    config.Cluster
	tm    config.Timing
	th    config.Thresholds
	audit bool
}

// specKey is every scalar field of dsm.Spec (all but NewPolicy, which a
// func value cannot key; such specs bypass the memo).
type specKey struct {
	Name               string
	BlockCacheBytes    int
	InfiniteBlockCache bool
	PageCacheBytes     int
	RNUMA              bool
	Migration          bool
	Replication        bool
	RelocDelayMisses   int
	AlwaysSCOMA        bool
}

func keyOfSpec(s dsm.Spec) specKey {
	return specKey{
		Name:               s.Name,
		BlockCacheBytes:    s.BlockCacheBytes,
		InfiniteBlockCache: s.InfiniteBlockCache,
		PageCacheBytes:     s.PageCacheBytes,
		RNUMA:              s.RNUMA,
		Migration:          s.Migration,
		Replication:        s.Replication,
		RelocDelayMisses:   s.RelocDelayMisses,
		AlwaysSCOMA:        s.AlwaysSCOMA,
	}
}

// simulate returns the statistics of replaying tr (the workload tk
// addresses) on s over cl, and whether the run memo answered instead of
// a simulation. Runs with a telemetry collector or a custom Policy
// constructor always simulate, as does every run through a nil cache.
func (tc *TraceCache) simulate(tk apps.Key, tr *trace.Trace, s systemRun, cl config.Cluster, ro dsm.RunOptions) (*stats.Sim, bool, error) {
	run := func() (*stats.Sim, error) {
		return dsm.RunWithOptions(tr, s.spec, cl, s.tm, s.th, ro)
	}
	if tc == nil || ro.Telemetry != nil || s.spec.NewPolicy != nil {
		if tc != nil {
			tc.simulated.Add(1)
		}
		sim, err := run()
		return sim, false, err
	}
	kcl := cl
	kcl.Net.Topology = cl.Net.Kind()
	key := runKey{trace: tk, spec: keyOfSpec(s.spec), cl: kcl, tm: s.tm, th: s.th, audit: ro.Audit}
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
