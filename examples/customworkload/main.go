// Customworkload shows how to write a new shared-memory workload against
// the apps.World API and evaluate it on the paper's systems. The
// workload is a software pipeline: stage s smooths a buffer and hands it
// to stage s+1, so each buffer moves from node to node over time. The
// pattern looks made for page migration, yet the output shows Mig
// performing no migrations at all: no page crosses the migration
// threshold, so Mig runs exactly like plain CC-NUMA (both normalize to
// 0.914). R-NUMA relocates 896 pages into its page caches, takes more
// remote misses than either, and finishes slowest (0.934).
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
)

// buildPipeline constructs the trace: `stages` buffers; in each round,
// one node's worth of processors works on one buffer, then the
// assignment rotates.
func buildPipeline(cpus, stages, rounds, bufKB int) (*apps.World, error) {
	w := apps.NewWorld("pipeline", cpus)
	bufs := make([]*apps.F64, stages)
	n := bufKB * 1024 / 8
	for s := range bufs {
		bufs[s] = w.AllocF64(fmt.Sprintf("stage%d", s), n)
	}
	w.Phase()

	// Stage 0's owners initialize every buffer (deliberately bad
	// placement that first-touch alone cannot fix once work rotates).
	w.Parallel(func(c *apps.Ctx) {
		if c.CPU >= 4 {
			return
		}
		for s := range bufs {
			for i := c.CPU * (n / 4); i < (c.CPU+1)*(n/4); i++ {
				c.Store(bufs[s], i, float64(i))
			}
		}
	})
	w.Barrier()

	nodes := cpus / 4
	for r := 0; r < rounds; r++ {
		w.Parallel(func(c *apps.Ctx) {
			node := c.CPU / 4
			stage := (node + r) % stages
			if stage >= len(bufs) {
				return
			}
			buf := bufs[stage]
			lane := c.CPU % 4
			lo, hi := lane*(n/4), (lane+1)*(n/4)
			// several smoothing sweeps: reuse that rewards locality
			for sweep := 0; sweep < 6; sweep++ {
				for i := lo + 1; i < hi-1; i++ {
					v := (c.Load(buf, i-1) + c.Load(buf, i) + c.Load(buf, i+1)) / 3
					c.Store(buf, i, v)
					c.Compute(4)
				}
			}
		})
		w.Barrier()
		_ = nodes
	}
	return w, nil
}

func main() {
	w, err := buildPipeline(32, 8, 16, 64)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := w.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d ops, %.2f MB footprint\n\n", tr.Ops(), float64(tr.Footprint)/(1<<20))

	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	base, err := dsm.Run(tr, dsm.PerfectCCNUMA(), cl, tm, th)
	if err != nil {
		log.Fatal(err)
	}
	systems := []string{"ccnuma", "mig", "rnuma"}
	specs, err := dsm.ResolveSpecs(systems, th)
	if err != nil {
		log.Fatal(err)
	}
	for i, spec := range specs {
		sim, err := dsm.Run(tr, spec, cl, tm, th)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s normalized %.3f  remote misses %d  migrations %d  relocations %d\n",
			systems[i], sim.Normalized(base),
			sim.TotalRemoteMisses(),
			sim.PageOpsByKind(stats.Migration),
			sim.PageOpsByKind(stats.Relocation))
	}
}
