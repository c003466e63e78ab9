package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/harness"
	"repro/internal/stats"
)

// simNames are the exact simulated counts every workload sums. They
// are deterministic, so any change from one pass or run to the next is
// a failure, and a change that only speeds up the simulator must leave
// all of them identical.
var simNames = []string{
	"sim.exec_cycles",
	"sim.remote_misses.cold", "sim.remote_misses.coherence", "sim.remote_misses.capacity_conflict",
	"sim.local_misses", "sim.block_cache_hits", "sim.page_cache_hits",
	"sim.upgrades", "sim.page_faults",
	"sim.page_ops.migration", "sim.page_ops.replication", "sim.page_ops.collapse",
	"sim.page_ops.relocation", "sim.page_ops.replacement",
	"sim.traffic_bytes", "sim.link_bytes", "sim.bisection_bytes",
}

// simCounts sums simulated statistics over a set of runs, keyed by the
// simNames entries.
type simCounts map[string]int64

// addSim adds one finished simulation.
func (c simCounts) addSim(s *stats.Sim) {
	c["sim.exec_cycles"] += s.ExecCycles
	c["sim.remote_misses.cold"] += s.RemoteMissesByClass(stats.Cold)
	c["sim.remote_misses.coherence"] += s.RemoteMissesByClass(stats.Coherence)
	c["sim.remote_misses.capacity_conflict"] += s.RemoteMissesByClass(stats.CapacityConflict)
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for _, v := range n.LocalMisses {
			c["sim.local_misses"] += v
		}
		c["sim.block_cache_hits"] += n.BlockCacheHits
		c["sim.page_cache_hits"] += n.PageCacheHits
		c["sim.upgrades"] += n.Upgrades
		c["sim.page_faults"] += n.PageFaults
	}
	c["sim.page_ops.migration"] += s.PageOpsByKind(stats.Migration)
	c["sim.page_ops.replication"] += s.PageOpsByKind(stats.Replication)
	c["sim.page_ops.collapse"] += s.PageOpsByKind(stats.Collapse)
	c["sim.page_ops.relocation"] += s.PageOpsByKind(stats.Relocation)
	c["sim.page_ops.replacement"] += s.PageOpsByKind(stats.Replacement)
	c["sim.traffic_bytes"] += s.TotalTrafficBytes()
	if s.Net != nil {
		c["sim.link_bytes"] += s.Net.MaxLink().Bytes
		c["sim.bisection_bytes"] += s.Net.BisectionBytes
	}
}

// addRecord adds one served record. Records carry no local-miss or
// block/page-cache-hit counts, so those stay 0 on the serve workloads.
func (c simCounts) addRecord(r harness.Record) {
	c["sim.exec_cycles"] += r.ExecCycles
	c["sim.remote_misses.cold"] += r.Cold
	c["sim.remote_misses.coherence"] += r.Coherence
	c["sim.remote_misses.capacity_conflict"] += r.CapacityConflict
	c["sim.upgrades"] += r.Upgrades
	c["sim.page_faults"] += r.PageFaults
	c["sim.page_ops.migration"] += r.Migrations
	c["sim.page_ops.replication"] += r.Replications
	c["sim.page_ops.collapse"] += r.Collapses
	c["sim.page_ops.relocation"] += r.Relocations
	c["sim.page_ops.replacement"] += r.Replacements
	c["sim.traffic_bytes"] += r.TrafficBytes
	c["sim.link_bytes"] += r.MaxLinkBytes
	c["sim.bisection_bytes"] += r.BisectionBytes
}

// equal reports whether two sums agree on every count.
func (c simCounts) equal(o simCounts) bool {
	for _, n := range simNames {
		if c[n] != o[n] {
			return false
		}
	}
	return true
}

// probeConfigs are the machines the layer probe times: the four paper
// systems on the ideal crossbar separate the block-cache path from the
// page-operation paths, and CC-NUMA on each multi-hop fabric isolates
// fabric traversal.
var probeConfigs = []struct {
	name string
	spec func() dsm.Spec
	topo string
}{
	{"perfect", dsm.PerfectCCNUMA, ""},
	{"ccnuma", dsm.CCNUMA, ""},
	{"migrep", dsm.MigRep, ""},
	{"rnuma", dsm.RNUMA, ""},
	{"ring", dsm.CCNUMA, "ring"},
	{"mesh", dsm.CCNUMA, "mesh"},
	{"fattree", dsm.CCNUMA, "fattree"},
}

// probeResult holds the layer probe's timings, in seconds.
type probeResult struct {
	generate    float64
	ops         int
	newMachine  float64
	execute     float64
	perConfig   map[string]float64
	auditOnline float64
	auditCheck  float64
	// ccnuma keeps the plain CC-NUMA crossbar statistics per app, so a
	// caller can check them against the same run made by the harness.
	ccnuma map[string]*stats.Sim
}

// layerProbe times the layers beneath the harness by calling them
// directly for every paper app: trace generation, then machine
// construction and execution on each probe configuration, then CC-NUMA
// once more with auditing on and the end-of-run audit. An audited run
// must reproduce the plain run's statistics.
func layerProbe(tr *tracer, parent, scale int, seed uint64) (probeResult, error) {
	res := probeResult{perConfig: map[string]float64{}, ccnuma: map[string]*stats.Sim{}}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, app := range apps.Paper() {
		t0 := time.Now()
		trc, err := app.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: scale, Seed: seed})
		t1 := time.Now()
		if err != nil {
			return res, fmt.Errorf("generating %s: %w", app.Name, err)
		}
		tr.add("apps.generate", parent, t0, t1)
		res.generate += t1.Sub(t0).Seconds()
		res.ops += trc.Ops()

		for _, pc := range probeConfigs {
			c := cl
			c.Net = config.Network{Topology: pc.topo}
			t0 := time.Now()
			m, err := dsm.NewMachine(pc.spec(), c, tm, th, trc.Footprint, trc.Name)
			t1 := time.Now()
			if err != nil {
				return res, fmt.Errorf("%s on %s: %w", app.Name, pc.name, err)
			}
			if err := m.Execute(trc); err != nil {
				return res, fmt.Errorf("%s on %s: %w", app.Name, pc.name, err)
			}
			t2 := time.Now()
			tr.add("dsm.new_machine", parent, t0, t1)
			tr.add("dsm.execute", parent, t1, t2)
			res.newMachine += t1.Sub(t0).Seconds()
			res.execute += t2.Sub(t1).Seconds()
			res.perConfig[pc.name] += t2.Sub(t1).Seconds()
			if pc.name != "ccnuma" {
				continue
			}
			plain := m.Stats()
			res.ccnuma[app.Name] = plain

			am, err := dsm.NewMachine(pc.spec(), c, tm, th, trc.Footprint, trc.Name)
			if err != nil {
				return res, fmt.Errorf("%s on %s: %w", app.Name, pc.name, err)
			}
			am.EnableAudit()
			t3 := time.Now()
			if err := am.Execute(trc); err != nil {
				return res, fmt.Errorf("%s on %s audited: %w", app.Name, pc.name, err)
			}
			t4 := time.Now()
			if err := audit.Check(am); err != nil {
				return res, fmt.Errorf("%s on %s: %w", app.Name, pc.name, err)
			}
			t5 := time.Now()
			tr.add("audit.execute", parent, t3, t4)
			tr.add("audit.check", parent, t4, t5)
			res.auditOnline += t4.Sub(t3).Seconds() - t2.Sub(t1).Seconds()
			res.auditCheck += t5.Sub(t4).Seconds()
			a, p := simCounts{}, simCounts{}
			a.addSim(am.Stats())
			p.addSim(plain)
			if !a.equal(p) {
				return res, fmt.Errorf("%s: audited CC-NUMA run differs from the plain run", app.Name)
			}
		}
	}
	return res, nil
}

// metrics returns the probe's per-layer metrics.
func (p probeResult) metrics() map[string]float64 {
	m := map[string]float64{
		"apps.generate_s":   p.generate,
		"trace.ops":         float64(p.ops),
		"dsm.new_machine_s": p.newMachine,
		"dsm.execute_s":     p.execute,
		"audit.online_s":    p.auditOnline,
		"audit.check_s":     p.auditCheck,
	}
	if p.ops > 0 {
		m["apps.generate_ns_per_op"] = p.generate * 1e9 / float64(p.ops)
		for _, pc := range probeConfigs {
			m["dsm.ns_per_op."+pc.name] = p.perConfig[pc.name] * 1e9 / float64(p.ops)
		}
	}
	return m
}
