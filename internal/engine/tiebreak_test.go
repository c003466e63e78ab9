package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// checkPeekIsMin fails t unless c, the CPU Peek returned, is the
// (Clock, ID) minimum of the runnable set, computed by an O(n) scan that
// does not look at the scheduler's tree. A nil c must mean no CPU is
// runnable.
func checkPeekIsMin(t testing.TB, step int, s *Scheduler, c *CPU) {
	t.Helper()
	for i := range s.cpus {
		o := &s.cpus[i]
		if o.state != cpuRunnable {
			continue
		}
		if c == nil {
			t.Fatalf("step %d: no cpu dispatched, but cpu %d at %d is runnable", step, o.ID, o.Clock)
		}
		if o.Clock < c.Clock || (o.Clock == c.Clock && o.ID < c.ID) {
			t.Fatalf("step %d: dispatched cpu %d at %d, but cpu %d at %d is earlier",
				step, c.ID, c.Clock, o.ID, o.Clock)
		}
	}
}

// TestDispatchOrderIsTotalUnderHeapChurn pins the deterministic
// tie-break: the scheduler must always surface the unique (Clock, ID)
// minimum of the runnable set, no matter how Park/Unblock/Retire churn
// reshapes it. Equal-clock events with an undefined order would pass the
// simple two-CPU tie test but reorder under a different layout. The
// sizes cover a single leaf, padding leaves (3, 24, 33, 100) and both
// sides of the ID-width boundaries (32/33, 64).
func TestDispatchOrderIsTotalUnderHeapChurn(t *testing.T) {
	for _, cpus := range []int{1, 2, 3, 24, 32, 33, 64, 100} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			s := NewScheduler(cpus)
			var parked []*CPU
			for step := 0; step < 5000 && !s.Done(); step++ {
				// Unblock a parked CPU at a clock that collides with
				// live ones.
				if len(parked) > 0 && rng.Intn(4) == 0 {
					c := parked[len(parked)-1]
					parked = parked[:len(parked)-1]
					s.Unblock(c, c.Clock+Time(rng.Intn(3)))
				}
				c := s.Peek()
				checkPeekIsMin(t, step, s, c)
				if c == nil {
					break
				}
				switch rng.Intn(8) {
				case 0:
					s.Park(c)
					parked = append(parked, c)
				case 1:
					s.Retire(c)
				default:
					// Zero-gap advances keep equal-clock collisions
					// frequent.
					c.Clock += Time(rng.Intn(3))
					s.Requeue(c)
				}
			}
			for _, c := range parked {
				s.Unblock(c, c.Clock)
				s.Retire(c)
			}
		})
	}
}

// FuzzSchedulerOrder decodes bytes into scheduler steps and checks every
// Peek against an independent scan. The first byte picks the CPU count
// (1–100); each later byte peeks and then Parks, Retires, Unblocks the
// most recently parked CPU, or Requeues with a gap of 0–2 cycles.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{23, 2, 3, 0, 10, 1, 2, 0, 0, 18, 2, 1, 7})
	f.Add([]byte{0, 0, 2, 3, 1})
	f.Add([]byte{32, 8, 16, 0, 0, 0, 2, 2, 2, 1, 1, 5, 13, 21})
	f.Add([]byte{99, 3, 11, 19, 0, 8, 2, 2, 1, 9, 17, 25, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := NewScheduler(int(data[0])%100 + 1)
		var parked []*CPU
		unblock := func(gap Time) {
			c := parked[len(parked)-1]
			parked = parked[:len(parked)-1]
			s.Unblock(c, c.Clock+gap)
		}
		for step, b := range data[1:] {
			c := s.Peek()
			checkPeekIsMin(t, step, s, c)
			if c == nil {
				if len(parked) == 0 {
					break
				}
				unblock(0)
				continue
			}
			gap := Time(b>>3) % 3
			switch b % 8 {
			case 0:
				s.Park(c)
				parked = append(parked, c)
			case 1:
				s.Retire(c)
			case 2:
				if len(parked) > 0 {
					unblock(gap)
				}
				s.Requeue(c)
			default:
				c.Clock += gap
				s.Requeue(c)
			}
		}
		for len(parked) > 0 {
			unblock(0)
		}
		for c := s.Peek(); c != nil; c = s.Peek() {
			s.Retire(c)
		}
		if !s.Done() {
			t.Fatal("scheduler not done after retiring every cpu")
		}
	})
}

// TestSchedulerKeyRange pins the key-range guard: the largest clock
// whose packed key fits is accepted and ordered, and a clock past it, or
// a negative one, panics in Requeue and Unblock instead of wrapping into
// a wrong order.
func TestSchedulerKeyRange(t *testing.T) {
	for _, cpus := range []int{1, 2, 32, 33} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			shift := bits.Len(uint(cpus - 1))
			top := Time(math.MaxInt64)
			if shift > 0 {
				top = Time(1)<<(64-shift) - 2
			}
			mustPanic := func(op string, clock Time, f func()) {
				t.Helper()
				defer func() {
					r := recover()
					msg, _ := r.(string)
					if !strings.Contains(msg, "out of scheduler range") {
						t.Errorf("%s at clock %d: recovered %v, want a range panic", op, clock, r)
					}
				}()
				f()
			}

			// The highest ID at the largest clock is the largest key;
			// it must still dispatch, after every lower ID at that clock.
			s := NewScheduler(cpus)
			for c := s.Peek(); c != nil && c.Clock == 0; c = s.Peek() {
				c.Clock = top
				s.Requeue(c)
			}
			for want := 0; want < cpus; want++ {
				c := s.Peek()
				if c == nil || c.ID != want || c.Clock != top {
					t.Fatalf("dispatched %+v, want cpu %d at %d", c, want, top)
				}
				s.Retire(c)
			}

			for _, clock := range []Time{top + 1, -1, math.MinInt64} {
				s := NewScheduler(cpus)
				c := s.Peek()
				c.Clock = clock
				mustPanic("requeue", clock, func() { s.Requeue(c) })
			}

			s = NewScheduler(cpus)
			c := s.Peek()
			s.Park(c)
			s.Unblock(c, top)
			for got := s.Peek(); got != c; got = s.Peek() {
				if got == nil {
					t.Fatalf("cpu unblocked at %d never dispatched", top)
				}
				s.Retire(got)
			}
			for _, clock := range []Time{top + 1, -1} {
				s := NewScheduler(cpus)
				c := s.Peek()
				s.Park(c)
				c.Clock = clock
				mustPanic("unblock", clock, func() { s.Unblock(c, clock) })
			}
		})
	}
}
