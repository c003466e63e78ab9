// Benchmarks of the simulator: per-application replay throughput,
// trace generation, ablations over the simulator's design choices, and
// microbenchmarks of the hot paths. End-to-end timing of the paper's
// experiments is perfbench's job; run the full-scale reproduction with
// cmd/experiments.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/trace"
)

// benchScale is the problem scale of every benchmark workload.
const benchScale = 8

// ---------------------------------------------------------------------
// Per-application replay benchmarks: simulator throughput on each
// workload (trace generated once outside the timed loop).

func benchReplay(b *testing.B, app string, spec dsm.Spec) {
	info, err := apps.ByName(app)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsm.Run(tr, spec, cl, tm, th); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Ops()), "trace-ops")
}

func BenchmarkReplay(b *testing.B) {
	for _, app := range []string{"barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace"} {
		for _, spec := range []dsm.Spec{dsm.CCNUMA(), dsm.MigRep(), dsm.RNUMA()} {
			b.Run(fmt.Sprintf("%s/%s", app, spec.Name), func(b *testing.B) {
				benchReplay(b, app, spec)
			})
		}
	}
}

// BenchmarkTraceGeneration measures workload generation alone.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, app := range []string{"lu", "radix", "barnes"} {
		b.Run(app, func(b *testing.B) {
			info, err := apps.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablations: design choices called out in DESIGN.md.

// BenchmarkAblationBlockCacheSize sweeps the CC-NUMA block cache from a
// quarter to 4x the paper's 64 KB: how much SRAM does the cluster cache
// need before R-NUMA's DRAM page cache stops mattering?
func BenchmarkAblationBlockCacheSize(b *testing.B) {
	info, err := apps.ByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, kb := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			spec := dsm.CCNUMA()
			spec.BlockCacheBytes = kb * 1024
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, spec, cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.TotalRemoteMisses()), "remote-misses")
		})
	}
}

// BenchmarkAblationPageCacheSize sweeps the R-NUMA page cache (the
// Figure 8 cost question) on the capacity-bound workload.
func BenchmarkAblationPageCacheSize(b *testing.B) {
	info, err := apps.ByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, frac := range []int{8, 4, 2, 1} {
		b.Run(fmt.Sprintf("1_%d", frac), func(b *testing.B) {
			spec := dsm.RNUMA()
			spec.PageCacheBytes = config.PageCacheBytes / frac
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, spec, cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.PageOpsByKind(stats.Replacement)), "replacements")
		})
	}
}

// BenchmarkAblationRNUMAThreshold sweeps the relocation threshold: the
// paper's 32 sits between eager thrashing and missed opportunity.
func BenchmarkAblationRNUMAThreshold(b *testing.B) {
	info, err := apps.ByName("lu")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm := config.Default()
	for _, thr := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("T%d", thr), func(b *testing.B) {
			th := config.DefaultThresholds()
			th.RNUMAThreshold = thr
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, dsm.RNUMA(), cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.PageOpsByKind(stats.Relocation)), "relocations")
			b.ReportMetric(float64(last.ExecCycles), "cycles")
		})
	}
}

// BenchmarkAblationNetworkLatency sweeps the wire latency (the Figure 7
// axis) on one workload for all three systems.
func BenchmarkAblationNetworkLatency(b *testing.B) {
	info, err := apps.ByName("ocean")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	th := config.DefaultThresholds()
	for _, f := range []int64{1, 4, 8} {
		for _, spec := range []dsm.Spec{dsm.CCNUMA(), dsm.RNUMA()} {
			b.Run(fmt.Sprintf("%dx/%s", f, spec.Name), func(b *testing.B) {
				tm := config.Default().ScaleNetwork(f)
				var last *stats.Sim
				for i := 0; i < b.N; i++ {
					sim, err := dsm.Run(tr, spec, cl, tm, th)
					if err != nil {
						b.Fatal(err)
					}
					last = sim
				}
				b.ReportMetric(float64(last.ExecCycles), "cycles")
			})
		}
	}
}

// BenchmarkAblationReactiveVsStatic compares R-NUMA's reactive page
// selection against the static S-COMA policy on the page-cache-bound
// workload: the reactive filter admits only pages that earn their frame.
func BenchmarkAblationReactiveVsStatic(b *testing.B) {
	info, err := apps.ByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, spec := range []dsm.Spec{dsm.RNUMA(), dsm.SCOMA()} {
		b.Run(spec.Name, func(b *testing.B) {
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, spec, cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.ExecCycles), "cycles")
			b.ReportMetric(float64(last.PageOpsByKind(stats.Replacement)), "replacements")
		})
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the simulator's hot paths.

func BenchmarkResourceAcquire(b *testing.B) {
	r := engine.NewResource("bus")
	var t engine.Time
	for i := 0; i < b.N; i++ {
		t = r.Acquire(t, 24)
	}
}

func BenchmarkSchedulerStep(b *testing.B) {
	s := engine.NewScheduler(32)
	for i := 0; i < b.N; i++ {
		c := s.Next()
		c.Clock += int64(i%7) + 1
		s.Yield(c)
	}
}

func BenchmarkRecorderAccess(b *testing.B) {
	r := trace.NewRecorder()
	for i := 0; i < b.N; i++ {
		r.Access(memory.Addr(i*8), i%5 == 0)
	}
}

// BenchmarkHotPath runs the shared internal/bench suite: cache probes,
// the fault path per miss class, engine dispatch, trace streaming and
// the sweep macrobenchmarks. The allocation-regression guard in
// bench_guard_test.go re-runs the cases its baseline table names.
func BenchmarkHotPath(b *testing.B) {
	for _, c := range bench.Cases() {
		b.Run(c.Name, c.Bench)
	}
}
