package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/stats"
)

func TestRelocationFiresOnStreaming(t *testing.T) {
	sim := runSynthetic(t, RNUMA(), apps.SynStream, 256, 8)
	if sim.PageOpsByKind(stats.Relocation) == 0 {
		t.Fatal("streaming refetches triggered no relocations")
	}
	if sim.PageOpsByKind(stats.Replacement) != 0 {
		t.Error("page cache replaced pages although the footprint fits")
	}
	var hits int64
	for i := range sim.Nodes {
		hits += sim.Nodes[i].PageCacheHits
	}
	if hits == 0 {
		t.Error("no page cache hits after relocation")
	}
}

func TestRelocationBeatsCCNUMAOnStreaming(t *testing.T) {
	// The footprint exceeds the block cache but fits the page cache:
	// the regime where R-NUMA wins.
	rn := runSynthetic(t, RNUMA(), apps.SynStream, 256, 8)
	cc := runSynthetic(t, CCNUMA(), apps.SynStream, 256, 8)
	if rn.ExecCycles >= cc.ExecCycles {
		t.Errorf("R-NUMA (%d) not faster than CC-NUMA (%d) on streaming reuse",
			rn.ExecCycles, cc.ExecCycles)
	}
	if rn.RemoteMissesByClass(stats.CapacityConflict) >= cc.RemoteMissesByClass(stats.CapacityConflict) {
		t.Errorf("R-NUMA capacity misses %d not below CC-NUMA %d",
			rn.RemoteMissesByClass(stats.CapacityConflict),
			cc.RemoteMissesByClass(stats.CapacityConflict))
	}
}

func TestPageCacheReplacementUnderPressure(t *testing.T) {
	// SynThrash streams a region four times the per-node quota; with a
	// small page cache the frames must recycle.
	spec := RNUMA()
	spec.PageCacheBytes = 64 * config.PageBytes
	sim := runSynthetic(t, spec, apps.SynThrash, 256, 4)
	if sim.PageOpsByKind(stats.Replacement) == 0 {
		t.Error("full page cache never replaced a page")
	}
	// The unbounded variant must not replace and must run at least as
	// fast.
	inf := runSynthetic(t, RNUMAInf(), apps.SynThrash, 256, 4)
	if inf.PageOpsByKind(stats.Replacement) != 0 {
		t.Error("infinite page cache replaced pages")
	}
	if inf.ExecCycles > sim.ExecCycles {
		t.Errorf("infinite page cache slower than finite: %d > %d",
			inf.ExecCycles, sim.ExecCycles)
	}
}

func TestRefetchCounterOnlyCountsCapacityMisses(t *testing.T) {
	m := mk(t, RNUMA())
	// Home page 0 at node 0; node 1 reads a block, is invalidated by a
	// node-2 write, and reads again: a coherence refetch that must NOT
	// advance the relocation counter.
	c4, c8 := testCPU(4), testCPU(8)
	m.pt.FirstTouch(0, 0)
	m.mapped[0][0], m.mapped[1][0], m.mapped[2][0] = true, true, true
	m.pt.Entry(0).Mode[1] = memory.ModeCCNUMA
	m.pt.Entry(0).Mode[2] = memory.ModeCCNUMA

	m.access(c4, 0, false)
	m.access(c8, 0, true) // invalidates node 1
	m.access(c4, 0, false)
	if got := m.RefetchCounter(1, 0); got != 0 {
		t.Errorf("refetch counter = %d after coherence miss, want 0", got)
	}

	// Now evict by conflict: same L1 set, different block.
	sets := config.L1Bytes / config.BlockBytes
	conflict := memory.Block(sets) // maps to set 0 like block 0
	// keep it on a node-0-homed page too
	m.pt.FirstTouch(conflict.Page(), 0)
	m.access(c4, conflict, false)
	m.access(c4, 0, false) // capacity refetch
	if got := m.RefetchCounter(1, 0); got != 1 {
		t.Errorf("refetch counter = %d after capacity refetch, want 1", got)
	}
}

func TestRelocationDelayBlocksEarlySwitch(t *testing.T) {
	delayed := RNUMAHalfMigRep(1 << 30) // effectively infinite delay
	sim := runSynthetic(t, delayed, apps.SynStream, 256, 8)
	if got := sim.PageOpsByKind(stats.Relocation); got != 0 {
		t.Errorf("delayed system relocated %d pages", got)
	}
	undelayed := RNUMAHalf()
	sim2 := runSynthetic(t, undelayed, apps.SynStream, 256, 8)
	if sim2.PageOpsByKind(stats.Relocation) == 0 {
		t.Error("undelayed system did not relocate")
	}
}

func TestSCOMAWritesStayLocal(t *testing.T) {
	m := mk(t, RNUMA())
	c4 := testCPU(4)
	m.pt.FirstTouch(0, 0)
	m.mapped[0][0], m.mapped[1][0] = true, true
	m.pt.Entry(0).Mode[1] = memory.ModeCCNUMA
	// Force a relocation of page 0 at node 1.
	m.ref[1][0] = int32(m.th.RNUMAThreshold)
	m.relocate(c4, 1, 0)
	if m.PageMode(1, 0) != memory.ModeSCOMA {
		t.Fatalf("page mode = %v, want scoma", m.PageMode(1, 0))
	}
	// A write fills the frame; a later read must be a page-cache hit
	// with no new remote traffic.
	m.access(c4, 0, true)
	before := m.st.Nodes[1].RemoteMisses
	// evict from L1 via a conflicting block on another page homed at 1
	sets := config.L1Bytes / config.BlockBytes
	conflict := memory.Block(sets)
	m.pt.FirstTouch(conflict.Page(), 1)
	m.access(c4, conflict, false)
	m.access(c4, 0, false)
	after := m.st.Nodes[1].RemoteMisses
	if before != after {
		t.Errorf("S-COMA refetch went remote: %v -> %v", before, after)
	}
	if m.st.Nodes[1].PageCacheHits == 0 {
		t.Error("no page cache hit recorded")
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

func TestFrameFlushWritesDirtyHome(t *testing.T) {
	m := mk(t, RNUMA())
	c4 := testCPU(4)
	m.pt.FirstTouch(0, 0)
	m.mapped[0][0], m.mapped[1][0] = true, true
	m.pt.Entry(0).Mode[1] = memory.ModeCCNUMA
	m.ref[1][0] = int32(m.th.RNUMAThreshold)
	m.relocate(c4, 1, 0)
	m.access(c4, 0, true) // dirty block in the frame
	fr := m.pc[1].Entry(0)
	if fr == nil || fr.Dirty == 0 {
		t.Fatalf("frame not dirty after write: %+v", fr)
	}
	flushed := m.flushFrame(m.beginPageOp(c4, 1), 1, fr)
	if flushed == 0 {
		t.Error("flush found no valid blocks")
	}
	if fr.Valid != 0 || fr.Dirty != 0 {
		t.Error("frame tags survive flush")
	}
	if m.nodeHolds(1, 0) {
		t.Error("node still holds the block after frame flush")
	}
	if err := m.dir.Check(); err != nil {
		t.Error(err)
	}
}

func TestRNUMAInfNeverReplaces(t *testing.T) {
	sim := runSynthetic(t, RNUMAInf(), apps.SynThrash, 512, 3)
	if sim.PageOpsByKind(stats.Replacement) != 0 {
		t.Error("R-NUMA-Inf replaced pages")
	}
}

func TestHalfCacheReplacesMoreThanFull(t *testing.T) {
	full := runSynthetic(t, RNUMA(), apps.SynThrash, 768, 4)
	half := runSynthetic(t, RNUMAHalf(), apps.SynThrash, 768, 4)
	if half.PageOpsByKind(stats.Replacement) < full.PageOpsByKind(stats.Replacement) {
		t.Errorf("half cache replaced less (%d) than full cache (%d)",
			half.PageOpsByKind(stats.Replacement), full.PageOpsByKind(stats.Replacement))
	}
}

// TestFrameEvictionFlushesAtEventTime pins the ISSUE 2 flushFrame fix:
// a dirty S-COMA frame evicted at a late simulated time must charge the
// NI, the fabric and the home controller at the current clock, not at
// time 0 (which used to inject the writeback traffic into the simulated
// past, invisible to any time-windowed view and free of queuing). It
// also pins the companion eviction fix: the victim's mapping clears, so
// the node re-faults on its next touch exactly like the static S-COMA
// eviction path.
func TestFrameEvictionFlushesAtEventTime(t *testing.T) {
	spec := RNUMA()
	spec.PageCacheBytes = config.PageBytes // one frame: next relocation evicts
	m := mk(t, spec)
	c4 := testCPU(4)
	m.pt.FirstTouch(0, 0)
	m.pt.FirstTouch(1, 0)
	m.mapped[0][0], m.mapped[0][1] = true, true
	m.mapped[1][0], m.mapped[1][1] = true, true
	m.pt.Entry(0).Mode[1] = memory.ModeCCNUMA
	m.pt.Entry(1).Mode[1] = memory.ModeCCNUMA
	m.EnableAudit()

	// Relocate page 0 into node 1's single frame and dirty it.
	m.ref[1][0] = int32(m.th.RNUMAThreshold)
	m.relocate(c4, 1, 0)
	if m.PageMode(1, 0) != memory.ModeSCOMA {
		t.Fatalf("setup: page 0 mode = %v, want scoma", m.PageMode(1, 0))
	}
	m.access(c4, 0, true)
	if fr := m.pc[1].Entry(0); fr == nil || fr.Dirty == 0 {
		t.Fatalf("setup: frame not dirty")
	}

	// Jump far forward and relocate page 1: the eviction's dirty flush
	// must be injected at the current event time, not at 0.
	const late = int64(1) << 20
	c4.Clock = late
	m.fabric.SetAuditFloor(late)
	m.ref[1][1] = int32(m.th.RNUMAThreshold)
	m.relocate(c4, 1, 1)

	if got := m.fabric.Violations(); len(got) != 0 {
		t.Errorf("flush injected in the simulated past: %v", got)
	}
	if got := m.AuditViolations(); len(got) != 0 {
		t.Errorf("machine audit violations: %v", got)
	}
	// The NI carried the writeback at the eviction's event time.
	if got := m.ni[1].Peek(); got <= late {
		t.Errorf("NI free at %d, want occupied past the eviction time %d", got, late)
	}
	// The remapped victim faults on its next touch.
	if m.Mapped(1, 0) {
		t.Error("victim page still mapped after frame eviction")
	}
	if m.PageMode(1, 0) != memory.ModeCCNUMA {
		t.Errorf("victim mode = %v, want ccnuma", m.PageMode(1, 0))
	}
	faults := m.st.Nodes[1].PageFaults
	m.access(c4, 0, false)
	if got := m.st.Nodes[1].PageFaults; got != faults+1 {
		t.Errorf("page faults = %d after touching evicted page, want %d", got, faults+1)
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

// TestStaticAndReactiveEvictionAgree checks the two eviction paths
// (reactive relocation and static S-COMA placement) share one helper:
// both clear the victim's mapping, downgrade it to CC-NUMA mode, and
// count a replacement.
func TestStaticAndReactiveEvictionAgree(t *testing.T) {
	for _, static := range []bool{false, true} {
		spec := RNUMA()
		spec.PageCacheBytes = config.PageBytes
		spec.AlwaysSCOMA = static
		m := mk(t, spec)
		c4 := testCPU(4)
		m.pt.FirstTouch(0, 0)
		m.pt.FirstTouch(1, 0)
		m.mapped[0][0], m.mapped[0][1] = true, true
		m.mapped[1][0], m.mapped[1][1] = true, true
		m.pt.Entry(0).Mode[1] = memory.ModeCCNUMA
		m.pt.Entry(1).Mode[1] = memory.ModeCCNUMA
		if static {
			m.mapSCOMA(c4, 1, 0)
			m.mapSCOMA(c4, 1, 1) // evicts page 0
		} else {
			m.ref[1][0] = int32(m.th.RNUMAThreshold)
			m.relocate(c4, 1, 0)
			m.ref[1][1] = int32(m.th.RNUMAThreshold)
			m.relocate(c4, 1, 1) // evicts page 0
		}
		if m.Mapped(1, 0) {
			t.Errorf("static=%v: victim still mapped after eviction", static)
		}
		if m.PageMode(1, 0) != memory.ModeCCNUMA {
			t.Errorf("static=%v: victim mode = %v, want ccnuma", static, m.PageMode(1, 0))
		}
		if got := m.st.Nodes[1].PageOps[stats.Replacement]; got != 1 {
			t.Errorf("static=%v: replacements = %d, want 1", static, got)
		}
	}
}
