// Latencysweep reproduces the Figure 7 experiment as a curve: how the
// three main systems respond as the network latency grows from the base
// 80 cycles to 8x that (remote:local ratios of 4 to 32). The paper's
// observation — CC-NUMA degrades fastest, R-NUMA is the most latency
// tolerant — appears as the divergence of the rows. Every point is
// normalized to one perfect-CC-NUMA run at the base latency, so the
// rows show absolute slowdown as the network gets slower.
//
//	go run ./examples/latencysweep [-app radix] [-scale 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
)

func main() {
	app := flag.String("app", "radix", "application to sweep")
	scale := flag.Int("scale", 4, "problem-size divisor")
	flag.Parse()

	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()

	info, err := apps.ByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	base, err := dsm.Run(tr, dsm.PerfectCCNUMA(), cl, tm, th)
	if err != nil {
		log.Fatal(err)
	}

	systems := []string{"ccnuma", "migrep", "rnuma"}
	specs, err := dsm.ResolveSpecs(systems, th)
	if err != nil {
		log.Fatal(err)
	}
	factors := []int64{1, 2, 4, 8}

	fmt.Printf("normalized execution time of %s vs network latency\n", *app)
	fmt.Printf("%-8s", "system")
	for _, f := range factors {
		fmt.Printf(" %7dx", f)
	}
	fmt.Println()

	for i, spec := range specs {
		fmt.Printf("%-8s", systems[i])
		for _, f := range factors {
			sim, err := dsm.Run(tr, spec, cl, tm.ScaleNetwork(f), th)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %8.3f", sim.Normalized(base))
		}
		fmt.Println()
	}
}
