package dsm

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// relocate runs the R-NUMA relocation interrupt for node n on page p
// after the policy decided to relocate it. Relocation is a purely
// local operation: flush the node's cached copies of the page, unmap
// it, allocate a frame in the S-COMA page cache (evicting a
// policy-chosen victim if full), and remap; the necessary blocks are
// refetched on demand.
func (m *Machine) relocate(c *engine.CPU, n int, p memory.Page) {
	e := m.pt.Entry(p)
	if e.Home == n || e.Mode[n] == memory.ModeReplica {
		return
	}
	pc := m.pc[n]
	op := m.beginPageOp(c, n)

	// Make room: deallocate the policy-chosen victim frame.
	if pc.Full() {
		m.evictFrame(op, n)
	}

	// Flush our CC-NUMA cached copies of the page; they will be
	// refetched into the frame on demand. Dirty copies travel home at
	// the operation's current event time (after any victim flush).
	flushed := 0
	b0 := p.FirstBlock()
	for i := 0; i < config.BlocksPerPage; i++ {
		b := b0 + memory.Block(i)
		present, dirty := m.invalidateOnNode(n, b, false)
		if present {
			flushed++
			if dirty {
				m.writebackRemote(n, e.Home, b, op.now)
			} else {
				m.dir.DropSharer(b, n)
			}
		}
	}
	op.charge(m.tm.PageOpCost(flushed))

	pc.Allocate(p)
	e.Mode[n] = memory.ModeSCOMA
	m.ref[n][p] = 0
	op.count(stats.Relocation)
	op.note(telemetry.EvRelocate, p)
	op.finish()
}

// mapSCOMA statically places a just-faulted remote page into node n's
// page cache (the AlwaysSCOMA policy): allocate a frame, evicting the
// LRU page if the cache is full, and map the page in S-COMA mode. The
// caller has already charged the soft fault; this adds the allocation
// and any replacement cost.
func (m *Machine) mapSCOMA(c *engine.CPU, n int, p memory.Page) {
	pc := m.pc[n]
	if pc.Entry(p) != nil {
		return
	}
	op := m.beginPageOp(c, n)
	if pc.Full() {
		m.evictFrame(op, n)
	}
	pc.Allocate(p)
	m.pt.Entry(p).Mode[n] = memory.ModeSCOMA
	op.count(stats.Relocation)
	op.note(telemetry.EvRelocate, p)
	op.finish()
}

// evictFrame deallocates node n's least recently used page frame: the
// frame's surviving blocks are flushed home at the operation's current
// event time, the victim page drops back to CC-NUMA mode, its refetch
// counter restarts, and the node's mapping is cleared so the next touch
// re-faults. Both eviction paths (reactive relocation and static S-COMA
// placement) share this helper, so they cannot diverge on the mapping
// state again.
func (m *Machine) evictFrame(op *pageOp, n int) {
	victim := m.pc[n].EvictLRU()
	flushed := m.flushFrame(op, n, victim)
	op.charge(m.tm.PageOpCost(flushed))
	m.pt.Entry(victim.Page).Mode[n] = memory.ModeCCNUMA
	m.mapped[n][victim.Page] = false // the remapped page faults on next touch
	m.ref[n][victim.Page] = 0
	op.count(stats.Replacement)
	op.note(telemetry.EvFrameFlush, victim.Page)
}

// flushFrame writes a deallocated S-COMA frame's dirty blocks back to
// the home node at the operation's current event time and purges the
// node's L1 copies of the page (the local physical mapping is going
// away). It returns the number of valid blocks flushed.
func (m *Machine) flushFrame(op *pageOp, n int, fr *cache.PageEntry) (flushed int) {
	p := fr.Page
	e := m.pt.Entry(p)
	b0 := p.FirstBlock()
	for i := 0; i < config.BlocksPerPage; i++ {
		bit := uint64(1) << uint(i)
		if fr.Valid&bit == 0 {
			continue
		}
		b := b0 + memory.Block(i)
		flushed++
		dirty := fr.Dirty&bit != 0
		// Inclusion of the frame over the L1s: purge processor copies.
		if m.l1count[n][b] > 0 {
			lo, hi := m.cpusOf(n)
			for c := lo; c < hi; c++ {
				if present, d := m.l1[c].Invalidate(b); present {
					m.l1count[n][b]--
					dirty = dirty || d
				}
			}
		}
		if dirty {
			m.writebackRemote(n, e.Home, b, op.now)
		} else {
			m.dir.DropSharer(b, n)
		}
		m.flags[n][b] &^= flagDepartInval // capacity departure
	}
	fr.Valid, fr.Dirty = 0, 0
	return flushed
}

// RefetchCounter exposes a page's current refetch count at a node, for
// tests.
func (m *Machine) RefetchCounter(node int, p memory.Page) int {
	if m.ref[node] == nil || uint64(p) >= uint64(len(m.ref[node])) {
		return 0
	}
	return int(m.ref[node][p])
}

// PageCacheLen exposes the number of resident pages in a node's page
// cache, for tests.
func (m *Machine) PageCacheLen(node int) int {
	if m.pc == nil {
		return 0
	}
	return m.pc[node].Len()
}

// PageMode exposes the caching mode of page p at a node, for tests.
func (m *Machine) PageMode(node int, p memory.Page) memory.PageMode {
	return m.pt.Entry(p).Mode[node]
}

// HomeOf exposes a page's current home node, for tests.
func (m *Machine) HomeOf(p memory.Page) int { return m.pt.Entry(p).Home }

// Mapped exposes whether node n currently holds a valid mapping of page
// p, for tests.
func (m *Machine) Mapped(node int, p memory.Page) bool { return m.mapped[node][p] }
