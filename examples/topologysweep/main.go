// Topologysweep runs one application on the paper's three main systems
// — plus the registry-grown contention-aware MigRep — across
// interconnect fabrics (ideal crossbar, ring, 2D mesh) and prints each
// run's hot-link table: which physical links carry the traffic, how
// loaded the hottest one is, and how much crosses the cluster
// bisection. Migration/replication's bulk 4-KB page moves concentrate
// load on the links near hot pages' homes in ways fine-grain 64-byte
// caching does not — visible here, invisible in the flat-latency
// model. "migrep-contend" (MigRep with the Spec.DeferHotRoutes flag)
// defers those moves while their route is the fabric's hot spot.
//
//	go run ./examples/topologysweep [-app migratory] [-scale 4] [-hot 5]
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
	app := flag.String("app", "migratory", "application to sweep")
	scale := flag.Int("scale", 4, "problem-size divisor")
	hot := flag.Int("hot", 5, "hot links to print per run")
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
	// The baseline runs on the ideal crossbar (the zero Net), so
	// normalized times stay comparable across fabrics.
	base, err := dsm.Run(tr, dsm.PerfectCCNUMA(), cl, tm, th)
	if err != nil {
		log.Fatal(err)
	}

	systems := []string{"ccnuma", "migrep", "migrep-contend", "rnuma"}
	specs, err := dsm.ResolveSpecs(systems, th)
	if err != nil {
		log.Fatal(err)
	}
	fabrics := []config.Network{
		{Topology: config.TopoCrossbar},
		{Topology: config.TopoRing},
		{Topology: config.TopoMesh},
	}

	for _, net := range fabrics {
		fmt.Printf("== %s fabric ==\n", net.Kind())
		fcl := cl
		fcl.Net = net
		for i, spec := range specs {
			sim, err := dsm.Run(tr, spec, fcl, tm, th)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s normalized %.3f, max link %d KB\n",
				systems[i], sim.Normalized(base), sim.Net.MaxLink().Bytes/1024)
			fmt.Print(sim.Net.NetReport(*hot))
		}
		fmt.Println()
	}
}
