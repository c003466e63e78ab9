package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// reproScale is the problem-size divisor of the repro-all workload: the
// full six-experiment sweep at scale 4 takes seconds per pass on two
// cores, long enough to be dominated by simulation and audit.
const reproScale = 4

// reproOptions are the options of the paper-reproduction path as the
// experiments CLI runs it: audited, one worker per core, a fresh
// in-memory trace cache per pass.
func reproOptions(seed uint64) harness.Options {
	return harness.Options{
		Scale:    reproScale,
		Seed:     seed,
		Parallel: runtime.NumCPU(),
		Audit:    true,
		Traces:   harness.NewTraceCache(),
		Out:      io.Discard,
	}
}

// setupReproAll has nothing to prepare: every pass builds its own
// options and trace cache, so repro-all's set-up is process start-up.
func setupReproAll(uint64) (func(), error) { return func() {}, nil }

// experimentOut is one experiment's rendered output and its checks.
type experimentOut struct {
	err    error
	digest [sha256.Size]byte
	sims   simCounts
	runSec float64 // RunByName alone
}

// passOut is one pass over every experiment.
type passOut struct {
	wall, cpu     float64
	exps          map[string]*experimentOut
	tally         runTally
	render        [3]float64 // text, CSV, JSON seconds
	tc            harness.TraceCacheStats
	alloc         uint64
	gcs           uint32
	fig5CCNUMA    map[string]*stats.Sim
	progressSecs  float64
	progressError error
}

// reproPass runs every paper experiment once, renders each result as
// text, CSV and JSON, and digests the three renderings. With a tracer it
// records a span per experiment and per rendering, and the harness's
// progress lines become spans of the runs inside each experiment.
func reproPass(seed uint64, tr *tracer) *passOut {
	o := reproOptions(seed)
	var pg *progressSpans
	if tr != nil {
		pg = &progressSpans{t: tr}
		o.Progress = pg
	}
	p := &passOut{exps: map[string]*experimentOut{}, tally: newRunTally(), fig5CCNUMA: map[string]*stats.Sim{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start, cpu0 := time.Now(), cpuSeconds()
	passSpan := tr.open("bench.pass", 0)
	for _, name := range harness.Experiments() {
		e := &experimentOut{sims: simCounts{}}
		p.exps[name] = e
		t0 := time.Now()
		expSpan := tr.open("harness.exp."+name, passSpan)
		if pg != nil {
			pg.setParent(expSpan)
		}
		r, err := harness.RunByName(name, o)
		tr.close(expSpan)
		t1 := time.Now()
		e.runSec = t1.Sub(t0).Seconds()
		if err != nil {
			e.err = err
			continue
		}
		var text, csv bytes.Buffer
		r.WriteText(&text)
		t2 := time.Now()
		err = r.WriteCSVRows(&csv)
		t3 := time.Now()
		recs := r.Records()
		js, jerr := json.MarshalIndent(recs, "", "  ")
		t4 := time.Now()
		tr.add("render.text", passSpan, t1, t2)
		tr.add("render.csv", passSpan, t2, t3)
		tr.add("render.json", passSpan, t3, t4)
		p.render[0] += t2.Sub(t1).Seconds()
		p.render[1] += t3.Sub(t2).Seconds()
		p.render[2] += t4.Sub(t3).Seconds()
		if err == nil {
			err = jerr
		}
		if err != nil {
			e.err = err
			continue
		}
		h := sha256.New()
		h.Write(text.Bytes())
		h.Write(csv.Bytes())
		h.Write(js)
		copy(e.digest[:], h.Sum(nil))
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					e.sims.addSim(run.Stats)
					if name == "fig5" && sys == "CC-NUMA" {
						p.fig5CCNUMA[app] = run.Stats
					}
				}
			}
		}
		p.tally.add(recs, seed)
	}
	tr.close(passSpan)
	p.wall, p.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&ms1)
	p.alloc, p.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	p.tc = o.Traces.Stats()
	if pg != nil {
		p.progressSecs, p.progressError = pg.runSecs, pg.err
	}
	return p
}

// measureReproAll runs whole passes while the next one is predicted to
// end no more than half a pass after dur (at least one pass). Every
// experiment must succeed audited and render the same bytes and
// simulated counts as in the first pass. A traced run makes one
// untraced and one traced pass, then probes the layers beneath the
// harness directly.
func measureReproAll(seed uint64, dur time.Duration, traced bool) (*outcome, error) {
	out := &outcome{passOps: 1}
	var first *passOut
	check := func(p *passOut) {
		for _, name := range harness.Experiments() {
			e := p.exps[name]
			out.attempted++
			ok := e.err == nil
			if e.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, e.err)
			} else if first != nil && (e.digest != first.exps[name].digest || !e.sims.equal(first.exps[name].sims)) {
				fmt.Fprintf(os.Stderr, "perfbench: %s: output differs from the first pass\n", name)
				ok = false
			}
			if !ok {
				out.failed++
			}
		}
		if first == nil {
			first = p
		}
		out.latMs = append(out.latMs, p.wall*1e3)
		out.passWall = append(out.passWall, p.wall)
		out.passCPU = append(out.passCPU, p.cpu)
		out.elapsed += p.wall
		out.rssMB = peakRSSMB()
	}

	if !traced {
		for {
			p := reproPass(seed, nil)
			check(p)
			if out.elapsed+p.wall/2 > dur.Seconds() {
				return out, nil
			}
		}
	}

	ref := reproPass(seed, nil)
	check(ref)
	tr := newTracer()
	p := reproPass(seed, tr)
	check(p)
	if p.progressError != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", p.progressError)
	}
	self := tr.selfTimes()

	probeSpan := tr.open("bench.probe", 0)
	pr, err := layerProbe(tr, probeSpan, reproScale, seed)
	tr.close(probeSpan)
	out.attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer probe: %v\n", err)
		out.failed++
	} else {
		for app, s := range pr.ccnuma {
			a, b := simCounts{}, simCounts{}
			a.addSim(s)
			if h := p.fig5CCNUMA[app]; h != nil {
				b.addSim(h)
			}
			if !a.equal(b) {
				fmt.Fprintf(os.Stderr, "perfbench: %s: direct CC-NUMA run differs from the harness's fig5 run\n", app)
				out.failed++
				break
			}
		}
	}

	m := pr.metrics()
	var runSecs float64
	for _, name := range harness.Experiments() {
		m["harness.exp."+name+"_s"] = p.exps[name].runSec
		runSecs += p.exps[name].runSec
	}
	m["harness.runs"] = float64(p.tally.runs)
	m["harness.repeat_runs"] = float64(p.tally.repeats)
	m["harness.busy_ratio"] = p.progressSecs / (runSecs * float64(runtime.NumCPU())) // Parallel = nproc
	m["harness.tracecache.generated"] = float64(p.tc.Generated)
	m["harness.tracecache.hits"] = float64(p.tc.Hits)
	m["render.text_s"], m["render.csv_s"], m["render.json_s"] = p.render[0], p.render[1], p.render[2]
	m["go.alloc_mb"] = float64(ref.alloc) / (1 << 20)
	m["go.gc_cycles"] = float64(ref.gcs)
	sims := simCounts{}
	for _, e := range ref.exps {
		for k, v := range e.sims {
			sims[k] += v
		}
	}
	for _, n := range simNames {
		m[n] = float64(sims[n])
	}
	for _, l := range selfLayers {
		m["self."+l+"_s"] = self[l]
	}
	m["tracing.overhead_pct"] = (p.wall - ref.wall) / ref.wall * 100
	out.layer = m
	out.spans = tr
	return out, nil
}

// runTally counts the simulations a set of results needed and how many
// of them repeat an earlier one. Two runs repeat when they simulate the
// same app, generated from the same seed, on the same system and fabric
// and produce identical counts; each experiment also runs one Perfect
// CC-NUMA baseline per app, always in the same configuration.
type runTally struct {
	seen          map[string]bool
	runs, repeats int
}

func newRunTally() runTally { return runTally{seen: map[string]bool{}} }

func (t *runTally) note(key string) {
	t.runs++
	if t.seen[key] {
		t.repeats++
	}
	t.seen[key] = true
}

// add tallies one experiment's records, whose traces were generated
// from seed, plus its per-app baselines.
func (t *runTally) add(recs []harness.Record, seed uint64) {
	apps := map[string]bool{}
	for _, r := range recs {
		if !apps[r.App] {
			apps[r.App] = true
			t.note(fmt.Sprintf("baseline|%s|%d", r.App, seed))
		}
		t.note(fmt.Sprintf("%s|%d|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
			r.App, seed, r.System, r.Fabric, r.ExecCycles, r.Cold, r.Coherence, r.CapacityConflict,
			r.Migrations, r.Replications, r.Collapses, r.Relocations, r.Replacements,
			r.Upgrades, r.PageFaults, r.TrafficBytes, r.MaxLinkBytes, r.BisectionBytes))
	}
}
