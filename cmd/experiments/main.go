// Command experiments regenerates the paper's tables and figures, plus
// the topology-sweep extension.
//
// Usage:
//
//	experiments                             # run everything at full scale
//	experiments -experiment fig5            # one experiment
//	experiments -experiment fig5 -systems ccnuma,migrep-contend,rnuma
//	experiments -experiment toposweep       # Figure 5 across interconnect fabrics
//	experiments -experiment scalesweep -scales 8,16,32,64   # Figure 5 across problem scales
//	experiments -scale 4 -parallel 8        # smaller inputs, concurrent runs
//	experiments -json results.json -csv results.csv
//	experiments -experiment params          # print the encoded Tables 2 and 3
//	experiments -list-systems               # print the memory-system registry
//	experiments -cpuprofile cpu.out -memprofile mem.out   # ad-hoc profiling
//	experiments -telemetry out/ -timeline   # windowed series + Perfetto timelines
//	experiments -progress                   # per-run completion lines on stderr
//
// Systems resolve through the dsm registry, so -systems accepts any
// registered name — including systems that postdate the paper, such as
// the contention-aware "migrep-contend".
//
// Every experiment of one invocation shares a harness.TraceCache: each
// workload is generated once, and each distinct run is simulated once —
// an "all" pass answers 112 of its 273 runs from the run memo, which
// -progress marks with "(memo)".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/harness"
)

func printParams() {
	fmt.Println("Table 2: applications and input parameters")
	for _, i := range apps.Paper() {
		fmt.Printf("  %-10s %-48s %s\n", i.Name, i.Description, i.Input)
	}
	fmt.Println()
	fmt.Println("Table 3: base system cost assumptions (600 MHz processor cycles)")
	t := config.Default()
	rows := [][2]string{
		{"network latency", fmt.Sprint(t.NetworkLatency)},
		{"local miss latency", fmt.Sprint(t.LocalMiss)},
		{"round-trip remote miss latency", fmt.Sprint(t.RemoteMiss)},
		{"soft trap", fmt.Sprint(t.SoftTrap)},
		{"TLB shootdown", fmt.Sprint(t.TLBShootdown)},
		{"alloc/replacement or R-NUMA relocation", fmt.Sprintf("%d~%d", t.PageOpCost(0), t.PageOpCost(config.BlocksPerPage))},
		{"page invalidation and data gathering", fmt.Sprintf("%d~%d", t.GatherCost(0), t.GatherCost(config.BlocksPerPage))},
		{"page copying", fmt.Sprintf("%d~%d", t.CopyCost(0), t.CopyCost(config.BlocksPerPage))},
	}
	for _, r := range rows {
		fmt.Printf("  %-42s %s\n", r[0], r[1])
	}
	fmt.Println()
	fmt.Println("Thresholds: MigRep 800 misses (reset 32000), R-NUMA 32 misses;")
	fmt.Println("slow systems: 1200 and 64.")
}

func printSystems() {
	fmt.Println("registered memory systems (dsm registry):")
	for _, s := range dsm.Systems() {
		fmt.Printf("  %-18s %s\n", s.Name, s.Description)
	}
}

// main delegates to run so that run's defers — in particular stopping
// and flushing the profiles — execute on every exit path, including
// errors. os.Exit lives only here.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp         = flag.String("experiment", "all", "experiment: fig5, table4, fig6, fig7, fig8, toposweep, scalesweep, params, all")
		scale       = flag.Int("scale", 1, "problem-size divisor (1 = full size)")
		seed        = flag.Uint64("seed", 0, "workload-generator seed (0 = the paper's inputs; cholesky, lu and ocean ignore it)")
		fabric      = flag.String("fabric", "", "interconnect override for every run: crossbar, ring, mesh, fattree (empty = experiment default)")
		scalesFlag  = flag.String("scales", "", "comma-separated scale ladder for -experiment scalesweep (default 8,16,32,64)")
		appsFlag    = flag.String("apps", "", "comma-separated app subset (default: the paper's seven)")
		systemsFlag = flag.String("systems", "", "comma-separated system override from the dsm registry (see -list-systems)")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations per experiment (0 = serial)")
		verbose     = flag.Bool("verbose", false, "print per-run progress")
		audit       = flag.Bool("audit", true, "run every simulation with event-time and traffic-conservation audits (internal/audit)")
		csvPath     = flag.String("csv", "", "also write machine-readable CSV rows to this file")
		jsonPath    = flag.String("json", "", "also write the structured records as JSON to this file")
		listSystems = flag.Bool("list-systems", false, "list the registered memory systems and exit")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		telemetry   = flag.String("telemetry", "", "collect time-resolved telemetry and write windowed-series CSVs and a run manifest into this directory")
		timeline    = flag.Bool("timeline", false, "with -telemetry, also record per-run page-operation timelines (Chrome trace JSON + CSV)")
		window      = flag.Int64("window", 0, "telemetry window width in simulated cycles (0 = default, 2^20)")
		progress    = flag.Bool("progress", false, "log per-run completion with wall time to stderr")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Registered after the CPU-profile defers, so the heap snapshot
		// is taken (and the file written) before StopCPUProfile flushes;
		// a failure here must not lose the run's results, so it only
		// warns.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *listSystems {
		printSystems()
		return nil
	}
	if *exp == "params" {
		printParams()
		return nil
	}

	// One cache shares each workload and each distinct run across
	// every experiment of the invocation.
	traces := harness.NewTraceCache()
	o := harness.Options{
		Scale:    *scale,
		Seed:     *seed,
		Fabric:   *fabric,
		Parallel: *parallel,
		Verbose:  *verbose,
		Audit:    *audit,
		Traces:   traces,
		Out:      os.Stdout,
	}
	if *telemetry != "" {
		o.Telemetry = &harness.TelemetryOptions{Window: *window, Timeline: *timeline}
	}
	if *progress {
		o.Progress = os.Stderr
	}
	if *appsFlag != "" {
		o.Apps = strings.Split(*appsFlag, ",")
	}
	if *systemsFlag != "" {
		o.Systems = strings.Split(*systemsFlag, ",")
	}
	if *scalesFlag != "" {
		for _, f := range strings.Split(*scalesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("experiments: bad -scales entry %q: %w", f, err)
			}
			o.Scales = append(o.Scales, n)
		}
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := harness.WriteCSVHeader(f); err != nil {
			return err
		}
		csvFile = f
	}

	names := harness.Experiments()
	if *exp != "all" {
		names = []string{*exp}
	}
	var records []harness.Record
	for _, n := range names {
		expStart := time.Now()
		r, err := harness.RunByName(n, o)
		if err != nil {
			return err
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "# experiment %s done in %.2fs\n", n, time.Since(expStart).Seconds())
		}
		if *telemetry != "" {
			if err := r.WriteTelemetry(*telemetry, time.Since(expStart)); err != nil {
				return err
			}
		}
		if csvFile != nil {
			if err := r.WriteCSVRows(csvFile); err != nil {
				return err
			}
		}
		if *jsonPath != "" {
			records = append(records, r.Records()...)
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *progress {
		s := traces.Stats()
		fmt.Fprintf(os.Stderr, "# tracecache: %d hits, %d coalesced, %d generated; runs: %d simulated, %d memo hits\n",
			s.Hits, s.Coalesced, s.Generated, s.RunsSimulated, s.MemoHits)
	}
	return nil
}
