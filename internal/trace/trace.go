// Package trace defines the memory-access trace format the application
// generators produce and the replay engine consumes.
//
// Traces are per-processor streams of block-grain operations. Consecutive
// accesses to the same coherence block are coalesced by the Recorder into
// a single Read or Write op (a run that both reads and writes emits a
// Write, since the block must be fetched exclusively either way); the
// cycles spent computing on in-cache data between block touches are
// carried as a compute gap on the next op. Synchronization (barriers,
// locks) appears inline so the replay engine can preserve inter-processor
// dependences in simulated time.
//
// # Columnar representation
//
// Each processor's stream is stored column-wise (struct of arrays): a
// Stream holds three dense columns — Kinds ([]Kind, one byte per op),
// Gaps ([]uint32) and Args ([]uint64) — instead of a slice of 16-byte Op
// structs. Replay walks the three columns directly (13 B/op of payload,
// no padding, and the kind column alone fits ~64 ops per cache line),
// and generation appends straight into the columns through the
// Recorder. The Op struct
// survives as the row-at-a-time view: Stream.Op(i), Stream.Append and
// Cursor assemble or scatter rows at the column boundary, which is the
// convenient form for tests and hand-built traces.
package trace

import (
	"fmt"

	"repro/internal/memory"
)

// Kind is the operation type of one trace op.
type Kind uint8

const (
	// Read fetches a block with read intent.
	Read Kind = iota
	// Write fetches a block with write (exclusive) intent.
	Write
	// Barrier waits for all processors to arrive at the same barrier id.
	Barrier
	// Lock acquires the mutex with the given id.
	Lock
	// Unlock releases the mutex with the given id.
	Unlock
	// Phase marks the start of the parallel phase: first-touch page
	// placement applies to accesses after this marker.
	Phase
	// Pad carries trailing compute time with no memory or sync effect.
	Pad

	// KindCount is the number of valid kinds (decoder bound).
	KindCount = int(Pad) + 1
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Barrier:
		return "barrier"
	case Lock:
		return "lock"
	case Unlock:
		return "unlock"
	case Phase:
		return "phase"
	case Pad:
		return "pad"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is the row-at-a-time view of one trace operation. For Read/Write,
// Arg is the global block number; for Barrier/Lock/Unlock it is the
// barrier or lock id. Gap is the compute time in cycles spent before
// this op issues.
type Op struct {
	Kind Kind
	Gap  uint32
	Arg  uint64
}

// Stream is one processor's op sequence in columnar form. The three
// columns always have equal length; index i across them is op i.
type Stream struct {
	Kinds []Kind
	Gaps  []uint32
	Args  []uint64
}

// StreamOf builds a stream from rows (test and hand-built-trace helper).
func StreamOf(ops ...Op) Stream {
	var s Stream
	s.Grow(len(ops))
	for _, op := range ops {
		s.Append(op)
	}
	return s
}

// Len returns the op count.
func (s Stream) Len() int { return len(s.Kinds) }

// Op assembles row i from the columns.
func (s Stream) Op(i int) Op {
	return Op{Kind: s.Kinds[i], Gap: s.Gaps[i], Arg: s.Args[i]}
}

// Append scatters one row onto the columns.
func (s *Stream) Append(op Op) {
	s.Kinds = append(s.Kinds, op.Kind)
	s.Gaps = append(s.Gaps, op.Gap)
	s.Args = append(s.Args, op.Arg)
}

// Grow reserves capacity for n additional ops.
func (s *Stream) Grow(n int) {
	if n <= 0 {
		return
	}
	if cap(s.Kinds)-len(s.Kinds) < n {
		kinds := make([]Kind, len(s.Kinds), len(s.Kinds)+n)
		copy(kinds, s.Kinds)
		s.Kinds = kinds
	}
	if cap(s.Gaps)-len(s.Gaps) < n {
		gaps := make([]uint32, len(s.Gaps), len(s.Gaps)+n)
		copy(gaps, s.Gaps)
		s.Gaps = gaps
	}
	if cap(s.Args)-len(s.Args) < n {
		args := make([]uint64, len(s.Args), len(s.Args)+n)
		copy(args, s.Args)
		s.Args = args
	}
}

// Ops materializes the stream as rows (tests and the AoS baseline
// benchmark; the replay engine streams the columns directly).
func (s Stream) Ops() []Op {
	out := make([]Op, s.Len())
	for i := range out {
		out[i] = s.Op(i)
	}
	return out
}

// Equal reports whether two streams hold the same op sequence.
func (s Stream) Equal(o Stream) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.Kinds {
		if s.Kinds[i] != o.Kinds[i] || s.Gaps[i] != o.Gaps[i] || s.Args[i] != o.Args[i] {
			return false
		}
	}
	return true
}

// Cursor iterates a stream row by row. The columns are shared with the
// underlying stream, not copied.
type Cursor struct {
	s Stream
	i int
}

// Cursor returns an iterator positioned before the first op.
func (s Stream) Cursor() Cursor { return Cursor{s: s} }

// Next returns the next op, or ok=false past the end.
func (c *Cursor) Next() (op Op, ok bool) {
	if c.i >= c.s.Len() {
		return Op{}, false
	}
	op = c.s.Op(c.i)
	c.i++
	return op, true
}

// Trace is a complete multi-processor trace.
type Trace struct {
	// Name identifies the generating application and its parameters.
	Name string

	// CPUs holds one columnar op stream per processor.
	CPUs []Stream

	// Barriers is the number of distinct barrier episodes (for
	// validation).
	Barriers int

	// Locks is the number of distinct lock ids used.
	Locks int

	// Footprint is the shared bytes allocated by the generator.
	Footprint uint64
}

// NumCPUs returns the processor count of the trace.
func (t *Trace) NumCPUs() int { return len(t.CPUs) }

// Ops returns the total op count over all processors.
func (t *Trace) Ops() int {
	n := 0
	for i := range t.CPUs {
		n += t.CPUs[i].Len()
	}
	return n
}

// Equal reports whether two traces are identical in metadata and op
// content (store round-trip check).
func (t *Trace) Equal(o *Trace) bool {
	if t.Name != o.Name || t.Barriers != o.Barriers || t.Locks != o.Locks ||
		t.Footprint != o.Footprint || len(t.CPUs) != len(o.CPUs) {
		return false
	}
	for i := range t.CPUs {
		if !t.CPUs[i].Equal(o.CPUs[i]) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: barrier sequences must be
// identical across processors (same ids in the same order), every lock
// must be released by its acquirer before the next lock op of that
// processor uses it again, and each processor must hold at most one lock
// at a time per id.
func (t *Trace) Validate() error {
	var ref []uint64
	for cpu := range t.CPUs {
		s := &t.CPUs[cpu]
		var barriers []uint64
		held := map[uint64]bool{}
		for i, k := range s.Kinds {
			switch k {
			case Barrier:
				barriers = append(barriers, s.Args[i])
			case Lock:
				if held[s.Args[i]] {
					return fmt.Errorf("trace %s: cpu %d op %d: recursive lock %d", t.Name, cpu, i, s.Args[i])
				}
				held[s.Args[i]] = true
			case Unlock:
				if !held[s.Args[i]] {
					return fmt.Errorf("trace %s: cpu %d op %d: unlock of unheld lock %d", t.Name, cpu, i, s.Args[i])
				}
				delete(held, s.Args[i])
			}
		}
		if len(held) != 0 {
			return fmt.Errorf("trace %s: cpu %d ends holding %d locks", t.Name, cpu, len(held))
		}
		if cpu == 0 {
			ref = barriers
		} else if len(barriers) != len(ref) {
			return fmt.Errorf("trace %s: cpu %d passes %d barriers, cpu 0 passes %d",
				t.Name, cpu, len(barriers), len(ref))
		} else {
			for i := range barriers {
				if barriers[i] != ref[i] {
					return fmt.Errorf("trace %s: cpu %d barrier %d is id %d, cpu 0 has id %d",
						t.Name, cpu, i, barriers[i], ref[i])
				}
			}
		}
	}
	return nil
}

// Recorder builds one processor's op stream with same-block run
// coalescing, appending directly into the stream's columns. It is the
// only way application generators should emit memory references.
type Recorder struct {
	s Stream

	// pending is compute time accumulated before the next emitted op.
	pending uint64
	// runGap is time accumulated during the active run (merged L1 hits
	// and interleaved compute); it becomes pending when the run flushes,
	// since it elapses after the run's fetch.
	runGap uint64

	runValid bool
	runBlock memory.Block
	runWrite bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

const maxGap = 1<<32 - 1

// emit appends an op carrying the pending gap, splitting oversized gaps
// into leading Pad ops.
func (r *Recorder) emit(k Kind, arg uint64) {
	for r.pending > maxGap {
		r.s.Append(Op{Kind: Pad, Gap: maxGap})
		r.pending -= maxGap
	}
	r.s.Append(Op{Kind: k, Gap: uint32(r.pending), Arg: arg})
	r.pending = 0
}

// flushRun emits the coalesced run, if any; the time spent inside the
// run carries over as the next op's gap.
func (r *Recorder) flushRun() {
	if !r.runValid {
		return
	}
	k := Read
	if r.runWrite {
		k = Write
	}
	r.emit(k, uint64(r.runBlock))
	r.pending = r.runGap
	r.runGap = 0
	r.runValid = false
}

// Access records a read or write of the block containing addr. Same-block
// consecutive accesses merge; each merged access contributes one cycle of
// compute gap (the L1 hit).
func (r *Recorder) Access(addr memory.Addr, write bool) {
	b := addr.Block()
	if r.runValid && b == r.runBlock {
		r.runWrite = r.runWrite || write
		r.runGap++ // the hit costs a cycle of pipeline time
		return
	}
	r.flushRun()
	r.runValid = true
	r.runBlock = b
	r.runWrite = write
}

// Compute adds cycles of pure computation. Compute interleaved with
// same-block accesses does not break the run: the block stays cached
// across it.
func (r *Recorder) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	if r.runValid {
		r.runGap += uint64(cycles)
	} else {
		r.pending += uint64(cycles)
	}
}

// Barrier records arrival at barrier id.
func (r *Recorder) Barrier(id int) {
	r.flushRun()
	r.emit(Barrier, uint64(id))
}

// Lock records acquisition of lock id.
func (r *Recorder) Lock(id int) {
	r.flushRun()
	r.emit(Lock, uint64(id))
}

// Unlock records release of lock id.
func (r *Recorder) Unlock(id int) {
	r.flushRun()
	r.emit(Unlock, uint64(id))
}

// Phase records the start-of-parallel-phase marker.
func (r *Recorder) Phase() {
	r.flushRun()
	r.emit(Phase, 0)
}

// Finish flushes any pending run and returns the columnar stream. The
// recorder must not be used afterwards.
func (r *Recorder) Finish() Stream {
	r.flushRun()
	if r.pending > 0 {
		// Trailing pure compute only matters for execution time; carry
		// it on a Pad op.
		r.emit(Pad, 0)
	}
	return r.s
}

// Len returns the number of ops emitted so far (excluding a pending run).
func (r *Recorder) Len() int { return r.s.Len() }
