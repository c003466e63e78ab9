// Quickstart: run one SPLASH-2 workload on the paper's two main systems
// and print the comparison — the minimal use of the library. It
// generates the trace once, runs it on the perfect-CC-NUMA baseline,
// and reports each system's execution time normalized to that
// baseline, the y-axis of every figure in the paper.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
)

func main() {
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()

	var names []string
	for _, i := range apps.All() {
		names = append(names, i.Name)
	}
	fmt.Println("available applications:", names)
	fmt.Println()

	info, err := apps.ByName("lu")
	if err != nil {
		log.Fatal(err)
	}
	// Scale 4 is a quick run; use 1 for the full reproduction size.
	tr, err := info.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: 4})
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
	for i, spec := range specs {
		sim, err := dsm.Run(tr, spec, cl, tm, th)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s normalized execution time %.3f (vs perfect CC-NUMA)\n",
			systems[i], sim.Normalized(base))
		fmt.Print(sim.Summary())
		fmt.Println()
	}
}
