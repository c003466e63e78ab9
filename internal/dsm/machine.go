package dsm

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/interconnect"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Message sizes in bytes for traffic accounting.
const (
	msgHeaderBytes = 8
	msgBlockBytes  = msgHeaderBytes + config.BlockBytes
)

// node flag bits, per node per block.
const (
	flagEverCached  = 1 << 0 // node has cached the block at least once
	flagDepartInval = 1 << 1 // last departure was an invalidation
)

// mrCounter is the per-page home-side migration/replication counter bank.
type mrCounter struct {
	read  []int32
	write []int32
	// homeUse counts the home node's own references to the page (its
	// local misses, observed by the memory controller); it weighs
	// against migration but never against replication, since it
	// reflects no remote traffic.
	homeUse    int32
	sinceReset int32
	// noRepl blocks replication until the next counter reset: set when
	// a write collapse proves the page is not read-only, it prevents
	// replicate/collapse thrashing on data with phased read/write
	// behaviour.
	noRepl bool
}

// Machine is one simulated DSM cluster executing one trace.
type Machine struct {
	spec Spec
	cl   config.Cluster
	tm   config.Timing
	th   config.Thresholds

	// pol is the decision layer (see specPolicy): the machine calls it
	// at the fault-path seams, and it calls back into the machine's
	// page operation mechanisms.
	pol *specPolicy

	numBlocks uint64
	numPages  uint64

	sched   *engine.Scheduler
	barrier *engine.Barrier
	locks   map[uint64]*engine.Lock
	lockOwn map[uint64]int // last node to hold the lock

	// cpuNode maps CPU id to node, replacing a division on every
	// dispatched op.
	cpuNode []int32

	bus  []*engine.Resource // per node memory bus
	ni   []*engine.Resource // per node network interface
	home []*engine.Resource // per node home protocol controller

	// fabric is the interconnect model: every protocol message is
	// routed over it, charging per-link byte counters and (on finite-
	// bandwidth fabrics) per-link occupancy. The default ideal crossbar
	// reproduces the flat network-latency model exactly.
	fabric *interconnect.Fabric

	pt  *memory.PageTable
	dir *directory.Directory

	l1 []*cache.L1         // per CPU
	bc []*cache.BlockCache // per node, nil if absent
	pc []*cache.PageCache  // per node, nil if absent

	l1count [][]uint8 // [node][block] count of on-node L1 copies
	flags   [][]uint8 // [node][block] classification flags
	mapped  [][]bool  // [node][page] node has a valid mapping

	pageBusy       []int64 // [page] time until which a page op blocks access
	parallelPlaced []bool  // [page] first-touch placement consumed post-Phase
	pageMissTotal  []int64 // [page] lifetime remote misses (for RelocDelay)

	mig []*mrCounter // [page] home-side counters, lazily built
	ref [][]int32    // [node][page] R-NUMA refetch counters

	// fixed latency components derived from the timing model; see
	// deriveFixed.
	localFixed  int64
	remoteFixed int64

	phaseDone bool

	// opScratch is the reusable page-operation carrier handed out by
	// beginPageOp: page operations never overlap (each runs to
	// completion inside the access that triggered it), so one scratch
	// object per machine removes the per-operation allocation.
	opScratch pageOp

	// Audit mode (see EnableAudit): the machine checks event-time
	// discipline as it runs — scheduler dispatch order, the page-busy
	// horizon, and (through the fabric's own audit mode) message
	// injection times — and accumulates violations for the end-of-run
	// internal/audit checks instead of panicking mid-simulation.
	auditing     bool
	lastDispatch int64
	violations   stats.ViolationLog

	// tel, when non-nil, receives time-resolved telemetry (windowed
	// series and the page-operation timeline) as the trace executes.
	// Telemetry is observational: it changes no simulated behaviour,
	// and the nil default costs one nil check per hook.
	tel *telemetry.Collector

	st *stats.Sim
}

// NewMachine builds a machine for a trace with the given shared
// footprint.
func NewMachine(spec Spec, cl config.Cluster, tm config.Timing, th config.Thresholds, footprintBytes uint64, app string) (*Machine, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	numPages := (footprintBytes + config.PageBytes - 1) / config.PageBytes
	if numPages == 0 {
		numPages = 1
	}
	numBlocks := numPages * config.BlocksPerPage

	m := &Machine{
		spec:      spec,
		cl:        cl,
		tm:        tm,
		th:        th,
		numBlocks: numBlocks,
		numPages:  numPages,
		locks:     make(map[uint64]*engine.Lock),
		lockOwn:   make(map[uint64]int),
		pt:        memory.NewPageTable(cl.Nodes),
		dir:       directory.New(numBlocks, cl.Nodes),
		st:        stats.New(spec.Name, app, cl.Nodes),
	}
	m.pt.Presize(int(numPages))
	m.sched = engine.NewScheduler(cl.TotalCPUs())
	m.barrier = engine.NewBarrier(cl.TotalCPUs(), tm.LocalMiss)
	m.cpuNode = make([]int32, cl.TotalCPUs())
	for i := range m.cpuNode {
		m.cpuNode[i] = int32(i / cl.CPUsPerNode)
	}
	fab, err := interconnect.New(cl.Net, cl.Nodes, tm)
	if err != nil {
		return nil, err
	}
	m.fabric = fab

	m.bus = engine.NewResourceBank("bus", cl.Nodes)
	m.ni = engine.NewResourceBank("ni", cl.Nodes)
	m.home = engine.NewResourceBank("home", cl.Nodes)
	m.l1count = make([][]uint8, cl.Nodes)
	m.flags = make([][]uint8, cl.Nodes)
	m.mapped = make([][]bool, cl.Nodes)
	m.ref = make([][]int32, cl.Nodes)
	// The per-node state tables share one backing array per table, so a
	// machine costs a handful of allocations instead of several per node.
	nb, np := int(numBlocks), int(numPages)
	l1flat := make([]uint8, cl.Nodes*nb)
	flagflat := make([]uint8, cl.Nodes*nb)
	mapflat := make([]bool, cl.Nodes*np)
	var refflat []int32
	if spec.RNUMA {
		refflat = make([]int32, cl.Nodes*np)
	}
	for n := 0; n < cl.Nodes; n++ {
		m.l1count[n] = l1flat[n*nb : (n+1)*nb : (n+1)*nb]
		m.flags[n] = flagflat[n*nb : (n+1)*nb : (n+1)*nb]
		m.mapped[n] = mapflat[n*np : (n+1)*np : (n+1)*np]
		if spec.RNUMA {
			m.ref[n] = refflat[n*np : (n+1)*np : (n+1)*np]
		}
	}
	m.pageBusy = make([]int64, numPages)
	m.parallelPlaced = make([]bool, numPages)
	m.pageMissTotal = make([]int64, numPages)
	if spec.MigRep() {
		m.mig = make([]*mrCounter, numPages)
	}

	m.l1 = make([]*cache.L1, cl.TotalCPUs())
	for i := range m.l1 {
		m.l1[i] = cache.NewL1(config.L1Bytes)
	}
	if spec.InfiniteBlockCache {
		m.bc = make([]*cache.BlockCache, cl.Nodes)
		for n := range m.bc {
			m.bc[n] = cache.NewInfiniteBlockCacheSized(nb)
		}
	} else if spec.BlockCacheBytes > 0 {
		m.bc = make([]*cache.BlockCache, cl.Nodes)
		for n := range m.bc {
			m.bc[n] = cache.NewBlockCache(spec.BlockCacheBytes, config.BlockCacheWays)
		}
	}
	if spec.RNUMA {
		m.pc = make([]*cache.PageCache, cl.Nodes)
		for n := range m.pc {
			m.pc[n] = cache.NewPageCacheSized(spec.PageCacheBytes, np)
		}
	}
	m.pol = newSpecPolicy(m)
	m.deriveFixed()
	return m, nil
}

// deriveFixed splits the Table 3 end-to-end latencies into the fixed
// component charged on top of the modeled resource occupancies, so that
// an uncontended access costs exactly the Table 3 number.
func (m *Machine) deriveFixed() {
	t := m.tm
	m.localFixed = t.LocalMiss - t.BusOccupancy
	if m.localFixed < 0 {
		m.localFixed = 0
	}
	unloaded := 2*t.BusOccupancy + 2*t.NIOccupancy + t.HomeOccupancy + 2*t.NetworkLatency
	m.remoteFixed = t.RemoteMiss - unloaded
	if m.remoteFixed < 0 {
		m.remoteFixed = 0
	}
}

// Stats returns the machine's statistics sink.
func (m *Machine) Stats() *stats.Sim { return m.st }

// EnableAudit switches the machine (and its fabric) into audit mode:
// event-time discipline is checked on every dispatched event, fabric
// injection and page-busy update, and violations accumulate for
// AuditViolations / internal/audit.Check. Auditing changes no simulated
// behaviour: an audited run produces byte-identical statistics.
func (m *Machine) EnableAudit() {
	m.auditing = true
	m.fabric.EnableAudit()
}

// AuditViolations returns the event-time violations the machine itself
// detected (scheduler dispatch order, page-busy regressions); fabric
// injection violations are reported by Fabric().Violations().
func (m *Machine) AuditViolations() []string { return m.violations.All() }

// AttachTelemetry binds a telemetry collector to the machine (and its
// fabric): windowed series — page ops by kind, misses by class,
// per-node traffic, per-link fabric bytes, dispatched ops — and, when
// the collector records a timeline, the discrete page-operation events,
// all keyed by simulated time. Telemetry changes no simulated
// behaviour: an instrumented run produces byte-identical statistics,
// and without a collector every hook reduces to a nil check.
func (m *Machine) AttachTelemetry(c *telemetry.Collector) {
	if c == nil {
		return
	}
	links := m.fabric.Topology().Links()
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Name
	}
	c.Bind(m.cl.Nodes, names)
	m.fabric.SetObserver(c)
	m.tel = c
}

// Telemetry returns the attached collector (nil when telemetry is off).
func (m *Machine) Telemetry() *telemetry.Collector { return m.tel }

// setPageBusy extends page p's busy horizon to t. Page operations only
// ever push the horizon forward — every accessor waits it out before
// starting a new operation — so a regression means an operation
// completed in the simulated past and is flagged under audit.
func (m *Machine) setPageBusy(p memory.Page, t int64) {
	if t < m.pageBusy[p] {
		if m.auditing {
			m.violations.Addf("dsm: pageBusy[%d] regressed from %d to %d", p, m.pageBusy[p], t)
		}
		return
	}
	m.pageBusy[p] = t
}

// Fabric returns the interconnect model the machine routes protocol
// messages over.
func (m *Machine) Fabric() *interconnect.Fabric { return m.fabric }

// nodeOf returns the node a CPU belongs to.
func (m *Machine) nodeOf(cpu int) int { return int(m.cpuNode[cpu]) }

// cpusOf returns the CPU id range [lo, hi) of a node.
func (m *Machine) cpusOf(node int) (lo, hi int) {
	return node * m.cl.CPUsPerNode, (node + 1) * m.cl.CPUsPerNode
}

// migCounter returns the page's counter bank, creating it on first use.
func (m *Machine) migCounter(p memory.Page) *mrCounter {
	c := m.mig[p]
	if c == nil {
		n := m.cl.Nodes
		rw := make([]int32, 2*n)
		c = &mrCounter{read: rw[:n:n], write: rw[n:]}
		m.mig[p] = c
	}
	return c
}

// reset zeroes a counter bank and lifts any replication block.
func (c *mrCounter) reset() {
	for i := range c.read {
		c.read[i] = 0
		c.write[i] = 0
	}
	c.homeUse = 0
	c.sinceReset = 0
	c.noRepl = false
}

// total returns read+write misses recorded for a node.
func (c *mrCounter) total(node int) int32 { return c.read[node] + c.write[node] }

// anyWrites reports whether any node recorded a write miss since reset.
func (c *mrCounter) anyWrites() bool {
	for _, w := range c.write {
		if w != 0 {
			return true
		}
	}
	return false
}

// invalidateOnNode removes every copy of block b held on node n (L1s,
// block cache, and S-COMA frame tags). byInval marks the departure as a
// coherence invalidation; otherwise it is recorded as an eviction, which
// makes the node's next miss classify as capacity/conflict. It reports
// whether any copy existed and whether any copy was dirty (the caller
// owns writeback accounting).
func (m *Machine) invalidateOnNode(n int, b memory.Block, byInval bool) (present, dirty bool) {
	if m.l1count[n][b] > 0 {
		lo, hi := m.cpusOf(n)
		for c := lo; c < hi; c++ {
			if p, d := m.l1[c].Invalidate(b); p {
				present = true
				dirty = dirty || d
				m.l1count[n][b]--
			}
		}
	}
	if m.bc != nil {
		if p, d := m.bc[n].Invalidate(b); p {
			present = true
			dirty = dirty || d
		}
	}
	if m.pc != nil {
		pg := b.Page()
		if e := m.pc[n].Entry(pg); e != nil {
			bit := uint64(1) << uint(b.Index())
			if e.Valid&bit != 0 {
				present = true
				dirty = dirty || e.Dirty&bit != 0
				e.Valid &^= bit
				e.Dirty &^= bit
			}
		}
	}
	if present {
		if byInval {
			m.flags[n][b] |= flagDepartInval
		} else {
			m.flags[n][b] &^= flagDepartInval
		}
	}
	return present, dirty
}

// downgradeOnNode demotes every copy of block b on node n to the clean
// Shared state, reporting whether any copy was dirty (data must be
// written back to home by the caller).
func (m *Machine) downgradeOnNode(n int, b memory.Block) (wasDirty bool) {
	if m.l1count[n][b] > 0 {
		lo, hi := m.cpusOf(n)
		for c := lo; c < hi; c++ {
			if m.l1[c].Lookup(b) == cache.Modified {
				m.l1[c].SetState(b, cache.Shared)
				wasDirty = true
			}
		}
	}
	if m.bc != nil {
		if m.bc[n].Probe(b) == cache.Modified {
			m.bc[n].SetState(b, cache.Shared)
			wasDirty = true
		}
	}
	if m.pc != nil {
		if e := m.pc[n].Entry(b.Page()); e != nil {
			bit := uint64(1) << uint(b.Index())
			if e.Dirty&bit != 0 {
				e.Dirty &^= bit
				wasDirty = true
			}
		}
	}
	return wasDirty
}

// nodeHolds reports whether node n currently caches block b anywhere.
func (m *Machine) nodeHolds(n int, b memory.Block) bool {
	if m.l1count[n][b] > 0 {
		return true
	}
	if m.bc != nil && m.bc[n].Probe(b) != cache.Invalid {
		return true
	}
	if m.pc != nil {
		if e := m.pc[n].Entry(b.Page()); e != nil && e.Valid&(1<<uint(b.Index())) != 0 {
			return true
		}
	}
	return false
}

// markCached records that node n now caches block b.
func (m *Machine) markCached(n int, b memory.Block) {
	m.flags[n][b] |= flagEverCached
	m.flags[n][b] &^= flagDepartInval
}

// classify determines the miss class for node n fetching block b, based
// on the node's history flags. Must be called before markCached.
func (m *Machine) classify(n int, b memory.Block) stats.MissClass {
	f := m.flags[n][b]
	if f&flagEverCached == 0 {
		return stats.Cold
	}
	if f&flagDepartInval != 0 {
		return stats.Coherence
	}
	return stats.CapacityConflict
}

// Verify runs consistency checks over the machine state: the directory
// invariants, and agreement between the directory sharer sets and the
// actual cache contents (every cached copy must be covered by the
// conservative sharer set; every dirty copy must be the registered
// owner's).
func (m *Machine) Verify() error {
	if err := m.dir.Check(); err != nil {
		return err
	}
	for n := 0; n < m.cl.Nodes; n++ {
		lo, hi := m.cpusOf(n)
		for c := lo; c < hi; c++ {
			// sample the L1 contents through its sets
			for b := memory.Block(0); uint64(b) < m.numBlocks; b++ {
				st := m.l1[c].Lookup(b)
				if st == cache.Invalid {
					continue
				}
				e := m.dir.Entry(b)
				if e.Sharers&(1<<uint(n)) == 0 {
					return fmt.Errorf("dsm: cpu %d caches block %d but node %d not in sharers", c, b, n)
				}
				if st == cache.Modified && (e.State != directory.ModifiedState || int(e.Owner) != n) {
					return fmt.Errorf("dsm: cpu %d holds block %d dirty but directory says %v owner %d",
						c, b, e.State, e.Owner)
				}
			}
		}
	}
	return nil
}

// LockStats exposes per-lock acquisition counts for tests and reports.
func (m *Machine) LockStats() map[uint64]int64 {
	out := make(map[uint64]int64, len(m.locks))
	//lint:unordered building a map from a map; callers order the result
	for id, l := range m.locks {
		out[id] = l.Acquisitions()
	}
	return out
}
