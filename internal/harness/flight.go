package harness

import "sync"

// flightGroup is a single-flight memo keyed by K. The first caller for a
// key runs its function; callers that arrive while it runs block until
// its result lands; later callers get the completed value. A failed
// result reaches every caller of its flight but is not kept, so a later
// call retries. The zero value is ready to use.
//
// Both tiers of TraceCache — materialized traces and simulated runs —
// are flightGroups.
type flightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightEntry[V]
}

// flightEntry is one in-flight or completed call. done closes when v
// and err are final.
type flightEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// flightOutcome says how one call to do resolved.
type flightOutcome int

const (
	// flightLed: this call ran the function.
	flightLed flightOutcome = iota
	// flightHit: a completed entry answered the call.
	flightHit
	// flightJoined: the call blocked on another caller's in-flight run.
	flightJoined
)

// do returns the value for key, running fn only if no completed or
// in-flight entry exists for it.
func (g *flightGroup[K, V]) do(key K, fn func() (V, error)) (V, flightOutcome, error) {
	g.mu.Lock()
	if e, ok := g.m[key]; ok {
		g.mu.Unlock()
		how := flightJoined
		select {
		case <-e.done:
			how = flightHit
		default:
		}
		<-e.done
		return e.v, how, e.err
	}
	if g.m == nil {
		g.m = make(map[K]*flightEntry[V])
	}
	e := &flightEntry[V]{done: make(chan struct{})}
	g.m[key] = e
	g.mu.Unlock()

	e.v, e.err = fn()
	if e.err != nil {
		// Drop the failed entry so a later call (possibly under
		// different conditions) can retry; the callers blocked on this
		// flight still observe the error.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}
	close(e.done)
	return e.v, flightLed, e.err
}

// completed counts the entries whose result has landed.
func (g *flightGroup[K, V]) completed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, e := range g.m {
		select {
		case <-e.done:
			n++
		default:
		}
	}
	return n
}
