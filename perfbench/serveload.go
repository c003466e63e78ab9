package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/serve"
)

const (
	// clients is the closed-loop client count of both serve workloads.
	clients = 2
	// coldScale is the problem-size divisor of every cold query.
	coldScale = 32
	// hotScale sizes the hot pool's simulations; the hot workload
	// measures only answers from the result cache, so the pool is
	// simulated once, in set-up, at a small size.
	hotScale = 64
	// hotWindow is serve-hot's requests per pass, the unit wall_s and
	// cpu_s are reported for; a serve-cold pass is one cycle through
	// its query shapes (coldCombos).
	hotWindow = 4096
	// hotWarmup is the untimed closed-loop load between serve-hot's
	// set-up and its timed phase; without it the first seconds run
	// slower while connections, caches and the collector's pacing
	// settle. Its length is fixed, so no work can move into it.
	hotWarmup = 2 * time.Second
	// commitTag pins the in-process server's result keys.
	commitTag = "perfbench"
)

// server is an in-process serve.Server behind loopback HTTP.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(serve.Config{Commit: commitTag}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// drains the simulation pool.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout only means stragglers are cut off
	<-s.served
	s.srv.Drain()
	s.client.CloseIdleConnections()
}

// request is one query with its two wire forms and its expected shape.
type request struct {
	q       harness.Query
	key     string
	records int
	get     string
	post    []byte
}

// systemsPerApp is each experiment's default system count: its records
// per app.
var systemsPerApp = map[string]int{"fig5": 6, "table4": 3, "fig6": 4, "fig7": 3, "fig8": 5}

func newRequest(q harness.Query) request {
	q = q.Normalize()
	n := len(q.Systems)
	if n == 0 {
		n = systemsPerApp[q.Experiment]
	}
	v := url.Values{}
	v.Set("experiment", q.Experiment)
	v.Set("apps", strings.Join(q.Apps, ","))
	if len(q.Systems) > 0 {
		v.Set("systems", strings.Join(q.Systems, ","))
	}
	v.Set("scale", strconv.Itoa(q.Scale))
	v.Set("seed", strconv.FormatUint(q.Seed, 10))
	post, err := json.Marshal(q)
	if err != nil {
		panic(err) // a Query always marshals
	}
	return request{
		q: q, key: serve.ResultKey(q, commitTag), records: n * len(q.Apps),
		get: "/query?" + v.Encode(), post: post,
	}
}

// reply is what one HTTP query returned.
type reply struct {
	status     int
	cache, key string
}

// do sends the request in GET or POST form and reads the body into buf.
func (s *server) do(r request, post bool, buf *bytes.Buffer) (reply, error) {
	var hreq *http.Request
	var err error
	if post {
		hreq, err = http.NewRequest(http.MethodPost, s.base+"/query", bytes.NewReader(r.post))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
	} else {
		hreq, err = http.NewRequest(http.MethodGet, s.base+r.get, nil)
	}
	if err != nil {
		return reply{}, err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return reply{resp.StatusCode, resp.Header.Get("X-Dsm-Cache"), resp.Header.Get("X-Dsm-Key")}, err
}

// decode decodes a body and checks it is the request's repro-record/v1
// array with the expected record count.
func (r request) decode(body []byte) ([]harness.Record, bool) {
	var recs []harness.Record
	if json.Unmarshal(body, &recs) != nil || len(recs) != r.records {
		return nil, false
	}
	for _, rec := range recs {
		if rec.Schema != harness.RecordSchema || rec.Experiment != r.q.Experiment {
			return nil, false
		}
	}
	return recs, true
}

// closedLoop runs `clients` goroutines that each send their next
// request only after the previous one returns, until dur has passed
// (dur 0: no time limit) or limit operations have been issued (limit 0:
// no count limit). Operation idx is numbered in issue order; latencies
// are kept in completion order, and a pass closes after every `window`
// completions.
func closedLoop(dur time.Duration, limit, window int, op func(client, idx int) bool) loadStats {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		next, done atomic.Int64
		mu         sync.Mutex
		ls         loadStats
		wg         sync.WaitGroup
		log        latencyLog
	)
	start := time.Now()
	lastT, lastCPU := start, cpuSeconds()
	fails := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for dur == 0 || time.Since(start) < dur {
				idx := int(next.Add(1) - 1)
				if limit > 0 && idx >= limit {
					return
				}
				t0 := time.Now()
				ok := op(c, idx)
				lat := time.Since(t0)
				if !ok {
					fails[c]++
				}
				n := done.Add(1)
				if !log.set(n-1, lat) {
					return
				}
				if n%int64(window) == 0 {
					mu.Lock()
					now, cpu := time.Now(), cpuSeconds()
					ls.passWall = append(ls.passWall, now.Sub(lastT).Seconds())
					ls.passCPU = append(ls.passCPU, cpu-lastCPU)
					lastT, lastCPU = now, cpu
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	ls.elapsed = time.Since(start).Seconds()
	ls.rssMB = peakRSSMB()
	runtime.ReadMemStats(&ms1)
	ls.alloc, ls.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	ls.latMs = log.ms(int(min(done.Load(), logCap)))
	for _, f := range fails {
		ls.failed += f
	}
	ls.attempted = len(ls.latMs)
	return ls
}

// latencyLog stores latencies by completion number in chunks that are
// allocated once and never grow, so recording a latency allocates
// nothing and the benchmark's own garbage does not pace the collector
// the in-process server runs under.
type latencyLog struct {
	mu     sync.Mutex
	chunks [logChunks]atomic.Pointer[[logChunk]float32]
}

const (
	logChunk  = 1 << 16
	logChunks = 64
	logCap    = logChunk * logChunks // far beyond 60 s of hot queries
)

// set records completion n's latency in milliseconds; it reports false
// once the log is full.
func (l *latencyLog) set(n int64, d time.Duration) bool {
	if n >= logCap {
		return false
	}
	slot := &l.chunks[n/logChunk]
	c := slot.Load()
	if c == nil {
		l.mu.Lock()
		if c = slot.Load(); c == nil {
			c = new([logChunk]float32)
			slot.Store(c)
		}
		l.mu.Unlock()
	}
	c[n%logChunk] = float32(float64(d) / 1e6)
	return true
}

// ms returns the first n latencies in completion order.
func (l *latencyLog) ms(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(l.chunks[i/logChunk].Load()[i%logChunk])
	}
	return out
}

func (ls loadStats) meanLatMs() float64 {
	if len(ls.latMs) == 0 {
		return 0
	}
	return sum(ls.latMs) / float64(len(ls.latMs))
}

// serveLayerMetrics are the per-layer metrics both serve workloads take
// from the untraced phase and the server's counters.
func serveLayerMetrics(st serve.Status, ref, traced loadStats, bodyKB float64, sims simCounts, m map[string]float64) {
	m["serve.hits"] = float64(st.Queries.Hits)
	m["serve.misses"] = float64(st.Queries.Misses)
	m["serve.coalesced"] = float64(st.Queries.Coalesced)
	m["serve.rejected"] = float64(st.Queries.Rejected)
	m["serve.failed"] = float64(st.Queries.Failed)
	m["harness.tracecache.generated"] = float64(st.TraceCache.Generated)
	m["harness.tracecache.hits"] = float64(st.TraceCache.Hits)
	m["serve.body_kb"] = bodyKB
	if passes := float64(len(ref.passWall)); passes > 0 {
		m["go.alloc_mb"] = float64(ref.alloc) / (1 << 20) / passes
		m["go.gc_cycles"] = float64(ref.gcs) / passes
	}
	for _, n := range simNames {
		m[n] = float64(sims[n])
	}
	if beyond(len(ref.latMs), 99) >= 10 {
		m["serve.p99_ms"] = percentile(ref.latMs, 99)
	}
	if r := ref.meanLatMs(); r > 0 {
		m["tracing.overhead_pct"] = (traced.meanLatMs() - r) / r * 100
	}
}

// coldCombos are the query shapes of serve-cold: Figure 5 or Table 4
// for one paper app or for two neighbouring ones.
func coldCombos() []harness.Query {
	paper := apps.Paper()
	var out []harness.Query
	for _, exp := range []string{"fig5", "table4"} {
		for i, a := range paper {
			out = append(out,
				harness.Query{Experiment: exp, Apps: []string{a.Name}},
				harness.Query{Experiment: exp, Apps: []string{a.Name, paper[(i+1)%len(paper)].Name}})
		}
	}
	return out
}

// coldRequest is operation idx of serve-cold. Every query shape occurs
// once per cycle of len(coldCombos()) operations, in an order the seed
// shuffles, so runs of equal length see the same mix; each operation
// has its own generator seed, so no two share a run, a trace or a
// result.
func coldRequest(combos []harness.Query, seed uint64, idx int) request {
	cycle, pos := idx/len(combos), idx%len(combos)
	perm := rand.New(rand.NewPCG(seed, uint64(cycle))).Perm(len(combos))
	q := combos[perm[pos]]
	q.Scale, q.Seed = coldScale, seed<<20+uint64(idx)+1
	return newRequest(q)
}

func setupServeCold(uint64) (func(), error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	return s.stop, nil
}

// measureServeCold sends cold queries from a closed loop. Every answer
// must be a fresh simulation ("miss") whose body is a repro-record/v1
// array of the expected length; afterwards a second server recomputes
// the first query, which must give the same bytes.
func measureServeCold(seed uint64, dur time.Duration, traced bool) (*outcome, error) {
	combos := coldCombos()
	out := &outcome{passOps: len(combos)}

	var (
		s         *server
		mu        sync.Mutex
		firstBody []byte
		bodyBytes int64
		bodies    int
		tally     = newRunTally()
		sims      = simCounts{}
		tr        *tracer
		base      int // operations issued by earlier passes
	)
	bufs := make([]bytes.Buffer, clients)
	op := func(c, idx int) bool {
		idx += base
		r := coldRequest(combos, seed, idx)
		t0 := time.Now()
		rep, err := s.do(r, idx%2 == 1, &bufs[c])
		if tr != nil {
			tr.add("serve.request", 0, t0, time.Now())
		}
		body := bufs[c].Bytes()
		recs, ok := r.decode(body)
		ok = requestOK(rep.status, err == nil && ok && rep.cache == string(serve.SourceMiss) && rep.key == r.key)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: cold query %d: status %d cache %q err %v\n", idx, rep.status, rep.cache, err)
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		bodyBytes += int64(len(body))
		bodies++
		tally.add(recs, r.q.Seed)
		if idx == 0 {
			firstBody = append([]byte(nil), body...)
		}
		if idx < len(combos) {
			for _, rec := range recs {
				sims.addRecord(rec)
			}
		}
		return true
	}
	// phase runs whole passes until dur has passed. Each pass gets a
	// fresh server: the server's trace cache keeps every trace it
	// generates, so one server would let memory grow with the number
	// of queries served, making peak_rss_mb a function of throughput.
	var st serve.Status
	phase := func(dur time.Duration) (loadStats, error) {
		var ls loadStats
		for ls.elapsed < dur.Seconds() {
			var err error
			if s, err = startServer(); err != nil {
				return ls, err
			}
			ls.add(closedLoop(0, len(combos), len(combos), op))
			addStatus(&st, s.srv.StatusNow())
			s.stop()
			base += len(combos)
		}
		return ls, nil
	}

	var ref, tl loadStats
	var err error
	if !traced {
		ref, err = phase(dur)
	} else if ref, err = phase(dur / 2); err == nil {
		tr = newTracer()
		tl, err = phase(dur / 2)
	}
	if err != nil {
		return nil, err
	}
	out.add(ref)
	out.add(tl)

	// Determinism: a fresh server must compute the first query's bytes.
	out.attempted++
	s2 := serve.New(serve.Config{Commit: commitTag})
	body, src, err := s2.Answer(context.Background(), coldRequest(combos, seed, 0).q)
	s2.Drain()
	if err != nil || src != serve.SourceMiss || !bytes.Equal(body, firstBody) {
		fmt.Fprintf(os.Stderr, "perfbench: recomputing the first cold query gave different bytes (%v)\n", err)
		out.failed++
	}
	if !traced {
		return out, nil
	}

	self := tr.selfTimes()
	m := map[string]float64{}
	probeSpan := tr.open("bench.probe", 0)
	pr, err := layerProbe(tr, probeSpan, coldScale, seed)
	out.attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer probe: %v\n", err)
		out.failed++
	}
	for k, v := range pr.metrics() {
		m[k] = v
	}
	text, csv, js, err := renderProbe(tr, probeSpan, seed)
	tr.close(probeSpan)
	out.attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: render probe: %v\n", err)
		out.failed++
	}
	m["render.text_s"], m["render.csv_s"], m["render.json_s"] = text, csv, js
	m["harness.runs"] = float64(tally.runs)
	m["harness.repeat_runs"] = float64(tally.repeats)
	serveLayerMetrics(st, ref, tl, float64(bodyBytes)/float64(max(1, bodies))/1024, sims, m)
	m["self.serve_s"] = self["serve"]
	out.layer = m
	out.spans = tr
	return out, nil
}

// addStatus sums the query and trace-cache counters of b into a.
func addStatus(a *serve.Status, b serve.Status) {
	a.Queries.Hits += b.Queries.Hits
	a.Queries.Misses += b.Queries.Misses
	a.Queries.Coalesced += b.Queries.Coalesced
	a.Queries.Rejected += b.Queries.Rejected
	a.Queries.Failed += b.Queries.Failed
	a.TraceCache.Generated += b.TraceCache.Generated
	a.TraceCache.Hits += b.TraceCache.Hits
}

// renderProbe times the three renderings of one cold-sized result (a
// Figure 5 query for two apps), averaged over repetitions.
func renderProbe(tr *tracer, parent int, seed uint64) (text, csv, js float64, err error) {
	paper := apps.Paper()
	r, err := harness.RunByName("fig5", harness.Options{
		Scale: coldScale, Seed: seed, Apps: []string{paper[0].Name, paper[1].Name},
		Parallel: 1, Audit: true, Out: new(bytes.Buffer),
	})
	if err != nil {
		return 0, 0, 0, err
	}
	const reps = 50
	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		buf.Reset()
		r.WriteText(&buf)
		t1 := time.Now()
		buf.Reset()
		if err := r.WriteCSVRows(&buf); err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		if _, err := json.MarshalIndent(r.Records(), "", "  "); err != nil {
			return 0, 0, 0, err
		}
		t3 := time.Now()
		tr.add("render.text", parent, t0, t1)
		tr.add("render.csv", parent, t1, t2)
		tr.add("render.json", parent, t2, t3)
		text += t1.Sub(t0).Seconds() / reps
		csv += t2.Sub(t1).Seconds() / reps
		js += t3.Sub(t2).Seconds() / reps
	}
	return text, csv, js, nil
}

// hotPool is serve-hot's fixed set of 32 distinct queries. Their bodies
// run from one record (about 0.5 KB) to 42 records (about 24 KB), all
// within the result cache's capacity; the seed picks the generator seed
// they share.
func hotPool(seed uint64) []request {
	paper := apps.Paper()
	names := make([]string, len(paper))
	for i, a := range paper {
		names[i] = a.Name
	}
	pick := func(from, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = names[(from+i)%len(names)]
		}
		return out
	}
	single := []string{"ccnuma", "rep", "mig", "migrep", "rnuma", "rnuma-inf", "perfect"}
	var qs []harness.Query
	for i, a := range names {
		qs = append(qs,
			harness.Query{Experiment: "fig5", Apps: []string{a}, Systems: []string{single[i]}},
			harness.Query{Experiment: "table4", Apps: []string{a}},
			harness.Query{Experiment: "fig5", Apps: []string{a}})
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, harness.Query{Experiment: "fig8", Apps: pick(2*i, 2)})
	}
	for i := 0; i < 2; i++ {
		qs = append(qs,
			harness.Query{Experiment: "fig6", Apps: pick(4*i, 4)},
			harness.Query{Experiment: "fig5", Apps: pick(3*i+1, 4)})
	}
	qs = append(qs,
		harness.Query{Experiment: "table4", Apps: names},
		harness.Query{Experiment: "fig7", Apps: names},
		harness.Query{Experiment: "fig5", Apps: names})
	pool := make([]request, len(qs))
	for i, q := range qs {
		q.Scale, q.Seed = hotScale, seed
		pool[i] = newRequest(q)
	}
	return pool
}

// warm answers every pool query once, from two clients, and returns the
// body served for each result key.
func warm(s *server, pool []request) (map[string][]byte, error) {
	bodies := map[string][]byte{}
	var (
		mu   sync.Mutex
		next atomic.Int64
		errs = make([]error, clients)
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(pool); i = int(next.Add(1) - 1) {
				r := pool[i]
				rep, err := s.do(r, true, &buf)
				_, ok := r.decode(buf.Bytes())
				if err != nil || rep.status != http.StatusOK || !ok || rep.cache != string(serve.SourceMiss) || rep.key != r.key {
					errs[c] = fmt.Errorf("warming %s: status %d cache %q err %v", r.q.Canonical(), rep.status, rep.cache, err)
					return
				}
				mu.Lock()
				bodies[r.key] = append([]byte(nil), buf.Bytes()...)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

func setupServeHot(seed uint64) (func(), error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	if _, err := warm(s, hotPool(seed)); err != nil {
		s.stop()
		return nil, err
	}
	return s.stop, nil
}

// measureServeHot draws pool queries from a closed loop, GET and POST
// mixed. Every answer must come from the result cache ("hit") and be
// byte-equal to the warm-up body for its key.
func measureServeHot(seed uint64, dur time.Duration, traced bool) (*outcome, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	defer s.stop()
	pool := hotPool(seed)
	bodies, err := warm(s, pool)
	if err != nil {
		return nil, err
	}
	out := &outcome{passOps: hotWindow}

	rngs := make([]*rand.Rand, clients)
	bufs := make([]bytes.Buffer, clients)
	bodyBytes := make([]int64, clients)
	var tr *tracer
	op := func(c, idx int) bool {
		rng := rngs[c]
		r := pool[rng.IntN(len(pool))]
		post := rng.IntN(2) == 1
		t0 := time.Now()
		rep, err := s.do(r, post, &bufs[c])
		if tr != nil {
			tr.add("serve.request", 0, t0, time.Now())
		}
		bodyBytes[c] += int64(bufs[c].Len())
		return requestOK(rep.status, err == nil && rep.cache == string(serve.SourceHit) &&
			rep.key == r.key && bytes.Equal(bufs[c].Bytes(), bodies[r.key]))
	}
	seedRNGs := func(phase uint64) {
		for c := range rngs {
			rngs[c] = rand.New(rand.NewPCG(seed, phase<<8|uint64(c)))
			bodyBytes[c] = 0
		}
	}

	seedRNGs(2)
	w := closedLoop(hotWarmup, 0, hotWindow, op)
	out.attempted, out.failed = w.attempted, w.failed
	seedRNGs(0)
	if !traced {
		ls := closedLoop(dur, 0, hotWindow, op)
		out.add(ls)
		return out, nil
	}
	ref := closedLoop(dur/2, 0, hotWindow, op)
	out.add(ref)
	refBytes := bodyBytes[0] + bodyBytes[1]
	seedRNGs(1)
	tr = newTracer()
	tl := closedLoop(dur/2, 0, hotWindow, op)
	out.add(tl)
	self := tr.selfTimes()

	m := map[string]float64{}
	sims := simCounts{}
	for _, r := range pool {
		recs, _ := r.decode(bodies[r.key])
		for _, rec := range recs {
			sims.addRecord(rec)
		}
	}
	serveLayerMetrics(s.srv.StatusNow(), ref, tl, float64(refBytes)/float64(max(1, ref.attempted))/1024, sims, m)

	// Answer and ResultKey alone, on the warm pool.
	const reps = 20000
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, src, err := s.srv.Answer(ctx, pool[i%len(pool)].q); err != nil || src != serve.SourceHit {
			out.failed++
			break
		}
	}
	t1 := time.Now()
	for i := 0; i < reps; i++ {
		_ = serve.ResultKey(pool[i%len(pool)].q, commitTag)
	}
	t2 := time.Now()
	tr.add("serve.answer", 0, t0, t1)
	tr.add("serve.result_key", 0, t1, t2)
	out.attempted++
	m["serve.answer_hit_us"] = t1.Sub(t0).Seconds() / reps * 1e6
	m["serve.result_key_us"] = t2.Sub(t1).Seconds() / reps * 1e6
	m["serve.http_us"] = ref.meanLatMs()*1e3 - m["serve.answer_hit_us"]
	m["self.serve_s"] = self["serve"]
	out.layer = m
	out.spans = tr
	return out, nil
}
