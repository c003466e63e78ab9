package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent 0 marks a root; a span's
// layer is the part of its name before the first dot.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path runs the same code without spans.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
	})
	return id
}

// open starts a span whose end is set later by close; children may name
// it as their parent in between.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.origin).Seconds()
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover (children clipped to the parent;
// overlapping children, such as parallel simulations, count once).
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.layer()] += (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write stores the environment line and every span as JSON lines.
func (t *tracer) write(path string, env map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// progressSpans turns the harness's Options.Progress lines into spans
// under the current experiment span: "# run <exp>/<app>/<system> done
// in <d>s" becomes a dsm.run span and "# trace <app> scale <n> ready in
// <d>s (<ops> ops)" an apps.trace span, each ending when its line
// arrives. The harness writes from several workers, so Write locks.
type progressSpans struct {
	t *tracer

	mu      sync.Mutex
	parent  int
	runSecs float64 // summed simulation time from the run lines
	err     error   // first line that did not parse
}

func (p *progressSpans) setParent(id int) {
	p.mu.Lock()
	p.parent = id
	p.mu.Unlock()
}

func (p *progressSpans) Write(b []byte) (int, error) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var name, marker string
		switch {
		case strings.HasPrefix(line, "# run "):
			name, marker = "dsm.run", " done in "
		case strings.HasPrefix(line, "# trace "):
			name, marker = "apps.trace", " ready in "
		default:
			continue
		}
		secs, ok := secondsAfter(line, marker)
		if !ok {
			if p.err == nil {
				p.err = fmt.Errorf("unexpected progress line %q", line)
			}
			continue
		}
		p.t.add(name, p.parent, now.Add(-time.Duration(secs*float64(time.Second))), now)
		if name == "dsm.run" {
			p.runSecs += secs
		}
	}
	return len(b), nil
}

// secondsAfter parses the "<d>s" duration that follows marker in line.
func secondsAfter(line, marker string) (float64, bool) {
	i := strings.LastIndex(line, marker)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(marker):]
	end := strings.IndexByte(rest, 's')
	if end < 0 {
		return 0, false
	}
	secs, err := strconv.ParseFloat(rest[:end], 64)
	return secs, err == nil
}
