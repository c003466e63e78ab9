package dsm

import (
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
)

// specPolicy is the page-relocation decision layer of a simulated
// system: the software (and home-side monitoring firmware) that decides
// when a page migrates, replicates, relocates into the S-COMA page
// cache, or is mapped there statically. It composes the paper's
// decision rules as the Spec's flags select them — home-driven
// migration/replication (optionally deferring moves on hot routes),
// reactive R-NUMA relocation (optionally delayed), and static S-COMA
// placement. The Machine owns the mechanism — protocol state, counter
// banks, and the page operations themselves (migrate, replicate,
// grantReplica, relocate, mapSCOMA) — and calls the policy at the seams
// where the paper's systems differ:
//
//   - OnPageMapped: a soft page fault just mapped page p at node n
//     (static placement under AlwaysSCOMA acts here).
//   - OnHomeMiss: home node n missed on its own page p (feeds the
//     home-use counter that weighs against migration).
//   - OnRemoteUpgrade: node n completed a remote write upgrade on page
//     p (an exclusivity request that moved no data).
//   - OnRemoteMiss: node n completed a remote fetch on page p with
//     miss class cls (the main trigger for every relocation policy).
//
// Hooks run after the triggering access has completed and its state
// changes are applied, so a page operation a hook starts may gather the
// very copy that triggered it. Any operation the policy invokes is
// charged to the requesting CPU c, which is the one waiting on the
// page. A full page cache always evicts its LRU frame (evictFrame).
type specPolicy struct {
	m     *Machine
	mr    *migRepPolicy // nil unless migration or replication is on
	rn    *rnumaPolicy  // nil unless RNUMA is on
	scoma bool          // static first-touch S-COMA placement
}

// newSpecPolicy derives the decision layer from the machine's Spec.
func newSpecPolicy(m *Machine) *specPolicy {
	s := m.spec
	p := &specPolicy{m: m, scoma: s.AlwaysSCOMA}
	if s.MigRep() {
		p.mr = &migRepPolicy{m: m}
	}
	if s.RNUMA {
		p.rn = &rnumaPolicy{m: m, delayMisses: s.RelocDelayMisses}
	}
	return p
}

func (p *specPolicy) OnPageMapped(c *engine.CPU, n int, pg memory.Page) {
	if p.scoma {
		// Static S-COMA: the page maps straight into the page cache;
		// its blocks fetch on demand.
		p.m.mapSCOMA(c, n, pg)
	}
}

func (p *specPolicy) OnHomeMiss(c *engine.CPU, n int, pg memory.Page, write bool) {
	if p.mr != nil {
		p.mr.poke(c, n, pg, write)
	}
}

func (p *specPolicy) OnRemoteUpgrade(c *engine.CPU, n int, pg memory.Page) {
	if p.mr != nil && p.m.pt.Entry(pg).Home != n {
		p.mr.poke(c, n, pg, true)
	}
}

func (p *specPolicy) OnRemoteMiss(c *engine.CPU, n int, pg memory.Page, cls stats.MissClass, write bool) {
	if p.mr != nil {
		p.mr.poke(c, n, pg, write)
	}
	if p.rn != nil {
		p.rn.onMiss(c, n, pg, cls)
	}
}

// Throttled reports how many page moves the policy deferred on hot
// routes (zero unless the Spec sets DeferHotRoutes).
func (p *specPolicy) Throttled() int64 {
	if p.mr == nil {
		return 0
	}
	return p.mr.throttled
}

// migRepPolicy runs the home-side page reference monitoring of Section
// 3.1: it maintains the per-page per-node miss counters, applies the
// periodic reset, and invokes page replication or migration when the
// thresholds fire.
type migRepPolicy struct {
	m *Machine

	// throttled counts the page moves deferHot held back.
	throttled int64
}

// poke records one request on page p issued by node n and applies the
// migration/replication thresholds.
func (mr *migRepPolicy) poke(c *engine.CPU, n int, p memory.Page, write bool) {
	m := mr.m
	e := m.pt.Entry(p)
	h := e.Home
	cnt := m.migCounter(p)
	cnt.sinceReset++
	// The reference that lands exactly on the reset interval still
	// reaches the threshold checks below: the counters clear only after
	// it has been considered. (Resetting first swallowed every
	// interval's final reference, so a page whose counter crossed the
	// threshold on that reference never triggered an operation.) When
	// the contention gate defers a move, the reset is skipped too — the
	// pending decision survives to re-trigger on a later miss, and the
	// counters clear on the next ungated reference instead.
	boundary := int(cnt.sinceReset) >= m.th.MigRepResetInterval
	if n == h {
		// The home's own misses weigh against migrating the page away
		// but trigger nothing themselves.
		cnt.homeUse++
		if boundary {
			cnt.reset()
		}
		return
	}
	if write {
		cnt.write[n]++
	} else {
		cnt.read[n]++
	}
	thr := int32(m.th.MigRepThreshold)

	// Replication: the page is read-only in this interval and the
	// requester reads it heavily. Pages recently collapsed by a write
	// stay ineligible until their counters reset.
	if m.spec.Replication && !cnt.anyWrites() && !cnt.noRepl &&
		cnt.read[n] >= thr && e.Mode[n] != memory.ModeReplica {
		if mr.deferHot(h, n) {
			return // keep the counters: the move is pending, not denied
		}
		if e.Replicated {
			m.grantReplica(c, n, p)
		} else {
			m.replicate(c, n, p)
		}
		if boundary {
			cnt.reset()
		}
		return
	}

	// Migration: the requester misses on the page at least a threshold
	// more than the home uses it. Remote references accrue to the
	// read/write banks, the home's own references only ever to homeUse,
	// so homeUse is the whole home-side weight of the comparison.
	if m.spec.Migration && !e.Replicated &&
		cnt.total(n) >= cnt.homeUse+thr {
		if mr.deferHot(h, n) {
			return // keep the counters: the move is pending, not denied
		}
		m.migrate(c, n, p)
	}
	if boundary {
		cnt.reset()
	}
}

// rnumaPolicy runs the cacher-side R-NUMA selection of Section 3.2:
// capacity/conflict refetches of a remote page bump its refetch
// counter, and crossing the threshold relocates the page into the
// node's S-COMA page cache — unless a relocation delay gives
// migration/replication first shot at the page (Section 6.4).
type rnumaPolicy struct {
	m *Machine

	// delayMisses, when non-zero, forbids relocating a page until it
	// has accumulated this many remote misses machine-wide.
	delayMisses int
}

func (rn *rnumaPolicy) onMiss(c *engine.CPU, n int, p memory.Page, cls stats.MissClass) {
	m := rn.m
	if cls != stats.CapacityConflict || m.pt.Entry(p).Home == n || m.pc[n].Entry(p) != nil {
		return
	}
	m.ref[n][p]++
	if int(m.ref[n][p]) < m.th.RNUMAThreshold {
		return
	}
	if rn.delayMisses > 0 && m.pageMissTotal[p] < int64(rn.delayMisses) {
		return
	}
	m.relocate(c, n, p)
}
