// Package engine provides the discrete-event core of the simulator: a set
// of processor clocks advanced in global time order, queued resources that
// model contention (memory buses, network interfaces, home controllers),
// and synchronization objects (barriers and locks) whose waiting time is
// charged in simulated cycles.
//
// The engine is deterministic: when several processors are eligible at the
// same simulated time, the lowest-numbered processor runs first.
package engine

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Time is simulated time in processor cycles.
type Time = int64

// Resource models a unit-capacity server with FIFO queuing: a request
// arriving at time t begins service at max(t, nextFree) and holds the
// resource for its occupancy. This is the standard analytic contention
// model for split-transaction buses and network interfaces.
type Resource struct {
	// name is the explicit label; when empty the label is prefix+id,
	// formatted lazily so constructing a resource never allocates a
	// string (machines build dozens per run, reports read few).
	name   string
	prefix string
	id     int

	nextFree Time
	busy     Time // accumulated busy cycles, for utilization reports
	uses     int64
}

// NewResource returns a named, initially idle resource.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// NewResourceBank returns n resources labeled prefix0..prefix{n-1},
// allocated in one block. Labels are formatted on demand by Name, so
// building a bank costs two allocations regardless of n.
func NewResourceBank(prefix string, n int) []*Resource {
	backing := make([]Resource, n)
	out := make([]*Resource, n)
	for i := range backing {
		backing[i].prefix = prefix
		backing[i].id = i
		out[i] = &backing[i]
	}
	return out
}

// Acquire occupies the resource for occ cycles starting no earlier than
// now, and returns the time at which service completes. The differences
// between the return value and now is the total delay (queuing plus
// service) experienced by the request.
//
//repro:hotpath
func (r *Resource) Acquire(now Time, occ Time) Time {
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	end := start + occ
	r.nextFree = end
	r.busy += occ
	r.uses++
	return end
}

// Peek returns the earliest time a new request could begin service.
//
//repro:hotpath
func (r *Resource) Peek() Time { return r.nextFree }

// Busy returns the total cycles the resource has been occupied.
func (r *Resource) Busy() Time { return r.busy }

// Uses returns the number of acquisitions.
func (r *Resource) Uses() int64 { return r.uses }

// Name returns the resource's label.
func (r *Resource) Name() string {
	if r.name != "" || r.prefix == "" {
		return r.name
	}
	return r.prefix + strconv.Itoa(r.id)
}

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.busy = 0
	r.uses = 0
}

// cpuState is the scheduling state of one simulated processor.
type cpuState int

const (
	cpuRunnable cpuState = iota
	cpuBlocked           // waiting at a barrier or on a lock
	cpuDone
)

// CPU is one simulated processor context managed by the Scheduler.
type CPU struct {
	ID    int
	Clock Time

	state cpuState
}

// empty is the key of a tree leaf that holds no runnable CPU: a parked,
// retired or padding leaf. The key-range guard keeps every real key
// below it, so an empty root means no CPU is runnable.
const empty = ^uint64(0)

// Scheduler advances a fixed set of CPUs in global simulated-time order.
//
// Two usage styles are supported. The classic pop/push cycle: Next pops
// the earliest runnable CPU, the caller performs one unit of its work
// (advancing its Clock), and Yield requeues it. And the cheaper in-place
// cycle used by the replay hot loop: Peek returns the earliest runnable
// CPU without removing it, the caller advances its Clock (and may push
// other CPUs via Unblock), then Requeue restores order, or Park / Retire
// removes the CPU when it blocks or finishes. The in-place cycle makes
// one tree update per dispatched event instead of two.
//
// The runnable set is a min tree over packed uint64 keys. A CPU's key is
// uint64(Clock)<<shift | ID, so one unsigned compare orders CPUs by
// (Clock, ID). Leaf 1<<shift + ID holds CPU ID's key; the leaves are
// padded to a power of two with empty keys, and each internal node holds
// the smaller of its two children, so the root tree[1] is the earliest
// runnable CPU. IDs are unique, so the order is total and the minimum —
// hence the dispatch sequence — does not depend on the tree's layout.
//
// Every update writes one leaf and walks to the root, taking the min
// with the sibling at each level. The sibling's address does not depend
// on loaded data, so the walk has no data-dependent branch or pointer
// chase, which matters because the replay loop makes one such walk per
// trace op.
type Scheduler struct {
	cpus  []CPU
	tree  []uint64 // tree[1] is the root; leaves are tree[1<<shift:]
	shift uint     // low key bits that hold the ID: bits.Len(n-1)
	limit uint64   // clocks at or above this have no key
	done  int

	// dispatches counts scheduling decisions: every Peek or Next that
	// handed the earliest runnable CPU to the caller. Run introspection
	// reads it as the event-dispatch total of the replay loop.
	dispatches int64
}

// NewScheduler creates a scheduler over n CPUs, all runnable at time 0.
func NewScheduler(n int) *Scheduler {
	shift := uint(bits.Len(uint(max(n, 1) - 1)))
	leaves := 1 << shift
	s := &Scheduler{
		cpus:  make([]CPU, n),
		tree:  make([]uint64, 2*leaves),
		shift: shift,
		// A key stays below empty while uint64(Clock) < ^uint64(0)>>shift.
		// Capping the limit at 1<<63 also refuses negative clocks, which
		// wrap to at least 1<<63, when shift is 0.
		limit: min(^uint64(0)>>shift, 1<<63),
	}
	leaf := s.tree[leaves:]
	for i := range leaf {
		leaf[i] = empty
	}
	for i := range s.cpus {
		s.cpus[i].ID = i
		leaf[i] = uint64(i) // clock 0
	}
	for j := leaves - 1; j >= 1; j-- {
		s.tree[j] = min(s.tree[2*j], s.tree[2*j+1])
	}
	return s
}

// enqueue writes c's packed (Clock, ID) key into its leaf. A clock
// outside the key range panics rather than wrap into a wrong dispatch
// order.
//
//repro:hotpath
func (s *Scheduler) enqueue(c *CPU) {
	if uint64(c.Clock) >= s.limit {
		panic(fmt.Sprintf("engine: clock %d out of scheduler range for cpu %d", c.Clock, c.ID))
	}
	s.set(c.ID, uint64(c.Clock)<<s.shift|uint64(c.ID))
}

// set writes k into CPU id's leaf and recomputes the minima on the path
// from that leaf to the root.
//
//repro:hotpath
func (s *Scheduler) set(id int, k uint64) {
	t := s.tree
	j := 1<<s.shift | id
	t[j] = k
	for j > 1 {
		k = min(k, t[j^1])
		j >>= 1
		t[j] = k
	}
}

// queued reports whether c currently holds a key in the tree.
//
//repro:hotpath
func (s *Scheduler) queued(c *CPU) bool {
	return s.tree[1<<s.shift|c.ID] != empty
}

// Peek returns the runnable CPU with the smallest clock (ties broken by
// id) without removing it, or nil when no CPU is runnable. The caller
// advances the CPU's clock and then calls Requeue, Park or Retire; until
// then the tree still holds the CPU's old key, and only Unblock may
// touch the scheduler.
//
//repro:hotpath
func (s *Scheduler) Peek() *CPU {
	k := s.tree[1]
	if k == empty {
		return nil
	}
	s.dispatches++
	return &s.cpus[k&(1<<s.shift-1)]
}

// Requeue restores order around a peeked CPU whose clock advanced.
//
//repro:hotpath
func (s *Scheduler) Requeue(c *CPU) {
	if c.state != cpuRunnable || !s.queued(c) {
		panic(fmt.Sprintf("engine: requeue of non-queued cpu %d", c.ID))
	}
	s.enqueue(c)
}

// Park removes a peeked CPU from the runnable set and marks it blocked
// on synchronization. It must later be released with Unblock.
//
//repro:hotpath
func (s *Scheduler) Park(c *CPU) {
	if !s.queued(c) {
		panic(fmt.Sprintf("engine: park of non-queued cpu %d", c.ID))
	}
	c.state = cpuBlocked
	s.set(c.ID, empty)
}

// Retire removes a peeked CPU from the runnable set and marks it done.
//
//repro:hotpath
func (s *Scheduler) Retire(c *CPU) {
	if !s.queued(c) {
		panic(fmt.Sprintf("engine: retire of non-queued cpu %d", c.ID))
	}
	c.state = cpuDone
	s.set(c.ID, empty)
	s.done++
}

// Next pops the runnable CPU with the smallest clock (ties broken by id).
// It returns nil when no CPU is runnable: either all are done, or the
// system has deadlocked on synchronization (which Done distinguishes).
//
//repro:hotpath
func (s *Scheduler) Next() *CPU {
	c := s.Peek()
	if c != nil {
		s.set(c.ID, empty)
	}
	return c
}

// Yield requeues a CPU obtained from Next so it can run again.
//
//repro:hotpath
func (s *Scheduler) Yield(c *CPU) {
	if c.state != cpuRunnable {
		panic(fmt.Sprintf("engine: yield of non-runnable cpu %d", c.ID))
	}
	s.enqueue(c)
}

// Block marks a CPU (obtained from Next) as waiting on synchronization.
// It must later be released with Unblock.
//
//repro:hotpath
func (s *Scheduler) Block(c *CPU) { c.state = cpuBlocked }

// Unblock makes a blocked CPU runnable at the given time and requeues it.
//
//repro:hotpath
func (s *Scheduler) Unblock(c *CPU, at Time) {
	if c.state != cpuBlocked {
		panic(fmt.Sprintf("engine: unblock of non-blocked cpu %d", c.ID))
	}
	if at > c.Clock {
		c.Clock = at
	}
	c.state = cpuRunnable
	s.enqueue(c)
}

// Finish retires a CPU obtained from Next.
func (s *Scheduler) Finish(c *CPU) {
	c.state = cpuDone
	s.done++
}

// Done reports whether every CPU has finished.
func (s *Scheduler) Done() bool { return s.done == len(s.cpus) }

// Dispatches returns the number of scheduling decisions made so far.
func (s *Scheduler) Dispatches() int64 { return s.dispatches }

// MaxClock returns the maximum clock over all CPUs — the simulated
// execution time once Done.
func (s *Scheduler) MaxClock() Time {
	var m Time
	for i := range s.cpus {
		m = max(m, s.cpus[i].Clock)
	}
	return m
}

// Barrier synchronizes a fixed population of CPUs: the last arriver
// releases everyone at max(arrival times) plus the release overhead.
type Barrier struct {
	population int
	overhead   Time

	waiting []*CPU
	// spare is the previous epoch's waiter slice, recycled so steady-
	// state barrier episodes allocate nothing.
	spare   []*CPU
	maxTime Time
	epochs  int64
}

// NewBarrier creates a barrier for the given population. overhead is
// added to the release time to account for the barrier implementation's
// own communication.
func NewBarrier(population int, overhead Time) *Barrier {
	if population <= 0 {
		panic("engine: barrier population must be positive")
	}
	return &Barrier{population: population, overhead: overhead}
}

// Arrive registers c at the barrier. If c is the last arriver, Arrive
// returns the release time and the slice of previously waiting CPUs that
// the caller must Unblock at that time; c itself remains runnable and its
// clock is advanced to the release time. Otherwise Arrive returns ok =
// false and the caller must Block (or Park) c.
//
// The returned waiters slice is only valid until the barrier next
// releases: its backing array is recycled for a later epoch's waiter
// list.
//
//repro:hotpath
func (b *Barrier) Arrive(c *CPU) (release Time, waiters []*CPU, ok bool) {
	if c.Clock > b.maxTime {
		b.maxTime = c.Clock
	}
	if len(b.waiting)+1 == b.population {
		release = b.maxTime + b.overhead
		waiters = b.waiting
		b.waiting = b.spare[:0]
		b.spare = waiters
		b.maxTime = 0
		b.epochs++
		c.Clock = release
		return release, waiters, true
	}
	b.waiting = append(b.waiting, c)
	return 0, nil, false
}

// Epochs returns how many times the barrier has released.
func (b *Barrier) Epochs() int64 { return b.epochs }

// Waiting returns how many CPUs are currently parked at the barrier.
func (b *Barrier) Waiting() int { return len(b.waiting) }

// Lock models a mutex acquired in simulated-time order. Acquisition is
// serialized: a CPU that requests the lock while it is held is parked and
// released when the holder unlocks. The memory-system cost of the lock
// operation itself (the remote access to the lock word) is charged by the
// caller, not the Lock.
type Lock struct {
	held    bool
	holder  int
	freeAt  Time
	waiters []*CPU
	acqs    int64
	maxQ    int
}

// NewLock returns an unlocked lock.
func NewLock() *Lock { return &Lock{holder: -1} }

// Acquire attempts to take the lock for c at its current clock. On
// success it returns ok = true (the caller keeps c runnable; c.Clock may
// have been advanced to the time the lock became free). On failure the
// caller must Block c; the CPU will be handed back by a later Release.
//
//repro:hotpath
func (l *Lock) Acquire(c *CPU) (ok bool) {
	if !l.held {
		l.held = true
		l.holder = c.ID
		if l.freeAt > c.Clock {
			c.Clock = l.freeAt
		}
		l.acqs++
		return true
	}
	l.waiters = append(l.waiters, c)
	if len(l.waiters) > l.maxQ {
		l.maxQ = len(l.waiters)
	}
	return false
}

// Release frees the lock at time now. If CPUs are waiting, the first
// waiter becomes the new holder and is returned so the caller can
// Unblock it at now; otherwise next is nil.
//
//repro:hotpath
func (l *Lock) Release(now Time) (next *CPU) {
	if !l.held {
		panic("engine: release of unheld lock")
	}
	l.freeAt = now
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = -1
		return nil
	}
	next = l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.holder = next.ID
	l.acqs++
	return next
}

// Holder returns the id of the current holder, or -1.
func (l *Lock) Holder() int {
	if !l.held {
		return -1
	}
	return l.holder
}

// Acquisitions returns how many times the lock has been taken.
func (l *Lock) Acquisitions() int64 { return l.acqs }

// MaxQueue returns the longest waiter queue observed.
func (l *Lock) MaxQueue() int { return l.maxQ }
