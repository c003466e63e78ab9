// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints every metric by name with its
// unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload repro-all --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 a separate traced pass records spans around the calls into
// each layer and the result holds the per-layer metrics. The benchmark
// drives the simulator only through its public functions and HTTP; it
// adds nothing to the program. See README.md for the workloads and the
// layer-to-metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
}

// perLayer are the metrics of single layers, reported by the traced
// run. A layer that does no work in a workload's measured phase reports
// 0 there (README.md maps each metric to the workload that moves it).
var perLayer = func() []metricDef {
	defs := []metricDef{}
	for _, e := range []string{"fig5", "table4", "fig6", "fig7", "fig8", "toposweep"} {
		defs = append(defs, metricDef{"harness.exp." + e + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"harness.runs", "count"},
		metricDef{"harness.repeat_runs", "count"},
		metricDef{"harness.busy_ratio", "ratio"},
		metricDef{"harness.tracecache.generated", "count"},
		metricDef{"harness.tracecache.hits", "count"},
		metricDef{"apps.generate_s", "s"},
		metricDef{"apps.generate_ns_per_op", "ns"},
		metricDef{"trace.ops", "count"},
		metricDef{"dsm.new_machine_s", "s"},
		metricDef{"dsm.execute_s", "s"},
	)
	for _, pc := range probeConfigs {
		defs = append(defs, metricDef{"dsm.ns_per_op." + pc.name, "ns"})
	}
	defs = append(defs,
		metricDef{"audit.online_s", "s"},
		metricDef{"audit.check_s", "s"},
		metricDef{"render.text_s", "s"},
		metricDef{"render.csv_s", "s"},
		metricDef{"render.json_s", "s"},
		metricDef{"serve.answer_hit_us", "us"},
		metricDef{"serve.result_key_us", "us"},
		metricDef{"serve.http_us", "us"},
		metricDef{"serve.p99_ms", "ms"},
		metricDef{"serve.hits", "count"},
		metricDef{"serve.misses", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.failed", "count"},
		metricDef{"serve.body_kb", "KB"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
	)
	for _, n := range simNames {
		defs = append(defs, metricDef{n, "count"})
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_s", "s"})
	}
	return append(defs,
		metricDef{"tracing.overhead_pct", "%"},
		metricDef{"error_rate", "ratio"},
		metricDef{"env.nproc", "count"},
		metricDef{"env.gomaxprocs", "count"},
	)
}()

// selfLayers are the layers whose span self time the traced run reports.
var selfLayers = []string{"harness", "apps", "dsm", "render", "serve"}

// workload is one named input set. setup builds what the measured phase
// needs and returns its teardown; measure sets up, measures for dur and
// checks every output.
type workload struct {
	name    string
	probes  int // set-up repetitions behind setup_s
	setup   func(seed uint64) (func(), error)
	measure func(seed uint64, dur time.Duration, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"repro-all", 9, setupReproAll, measureReproAll},
	{"serve-cold", 9, setupServeCold, measureServeCold},
	{"serve-hot", 3, setupServeHot, measureServeHot},
}

// loadStats is what one measured phase produced.
type loadStats struct {
	// latMs holds one latency per operation, in completion order: a
	// pass on repro-all, a query round trip on the serve workloads.
	latMs []float64
	// passWall and passCPU hold one sample per pass, a pass being the
	// workload's fixed unit of work.
	passWall, passCPU []float64
	attempted, failed int
	elapsed           float64 // seconds measured
	alloc             uint64
	gcs               uint32
	// rssMB is the peak resident set size when the phase ended, before
	// the benchmark's own post-processing.
	rssMB float64
}

// add appends a later phase's samples.
func (ls *loadStats) add(o loadStats) {
	ls.latMs = append(ls.latMs, o.latMs...)
	ls.passWall = append(ls.passWall, o.passWall...)
	ls.passCPU = append(ls.passCPU, o.passCPU...)
	ls.attempted += o.attempted
	ls.failed += o.failed
	ls.elapsed += o.elapsed
	ls.alloc += o.alloc
	ls.gcs += o.gcs
	ls.rssMB = max(ls.rssMB, o.rssMB)
}

// outcome is what a workload's measurement produced: its phases, plus
// the per-layer metrics and spans of a traced run.
type outcome struct {
	loadStats
	passOps int // operations per pass
	layer   map[string]float64
	spans   *tracer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: repro-all, serve-cold or serve-hot")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := flag.Bool("setup-probe", false, "set up the workload, report readiness and exit (used for setup_s)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload repro-all|serve-cold|serve-hot, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if *probe {
		teardown, err := w.setup(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		teardown()
		return
	}
	if err := run(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w *workload, seed uint64, seconds int, traced bool) error {
	env := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}
	var setups []float64
	if !traced {
		var err error
		if setups, err = setupTimes(w, seed); err != nil {
			return err
		}
	}
	out, err := w.measure(seed, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return err
	}
	env["commit"] = commit()
	if out.spans != nil {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := out.spans.write(path, env); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{out.layer[d.name], d.unit}
		}
		res.Metrics["error_rate"] = metric{errorRate(out.attempted, out.failed), "ratio"}
		res.Metrics["env.nproc"] = metric{float64(runtime.NumCPU()), "count"}
		res.Metrics["env.gomaxprocs"] = metric{float64(runtime.GOMAXPROCS(0)), "count"}
	} else {
		vals := map[string]float64{
			"setup_s":     median(setups),
			"peak_rss_mb": out.rssMB,
			"wall_s":      median(out.passWall),
			"cpu_s":       median(out.passCPU),
			"qps":         float64(out.passOps) / median(out.passWall),
			"p50_ms":      passPercentile(out.latMs, out.passOps, 50),
			"p95_ms":      passPercentile(out.latMs, out.passOps, 95),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}

	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("# env %s\n", envLine)
	fmt.Printf("# operations %d attempted, %d failed, error_rate %g\n",
		out.attempted, out.failed, errorRate(out.attempted, out.failed))
	if !traced {
		p, ok := highestPercentile(len(out.latMs), 10)
		fmt.Printf("# samples: %d operation latencies in %.1f s (highest percentile with >= 10 beyond: p%g, supported %v), %d passes of %d operations (wall_s quartile spread %.3f), %d set-ups\n",
			len(out.latMs), out.elapsed, p, ok, len(out.passWall), out.passOps, relSpread(out.passWall), len(setups))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("# %-40s %16.6f %s\n", d.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupTimes starts the benchmark again in set-up probe mode, once per
// repetition, and times each child from process start until it reports
// readiness: process start-up, package initialisation and the workload's
// set-up, which is everything before the first timed operation.
func setupTimes(w *workload, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < w.probes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		ready := time.Since(start).Seconds()
		waitErr := cmd.Wait()
		if readErr != nil || strings.TrimSpace(line) != "ready" || waitErr != nil {
			return nil, fmt.Errorf("set-up probe %d of %s failed (read %v, wait %v)", i, w.name, readErr, waitErr)
		}
		times = append(times, ready)
	}
	return times, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// commit names the source revision, or "unknown" outside a VCS checkout.
func commit() string {
	if c := telemetry.BuildCommit(); c != "" {
		return c
	}
	return "unknown"
}
