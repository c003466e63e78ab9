package interconnect

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Fabric is a Topology instantiated with timing: a per-hop latency and
// per-link byte/message counters. Links have infinite bandwidth, so a
// message never queues. All methods are deterministic.
type Fabric struct {
	topo       Topology
	hopLatency int64

	linkBytes []int64
	linkMsgs  []int64

	// pairBytes[src][dst] accumulates the bytes injected for each
	// ordered node pair, the ground truth for conservation checks
	// (sum over links == sum over pairs of bytes x route hops).
	pairBytes [][]int64

	localBytes int64
	localMsgs  int64

	// Audit mode. When enabled, every injection is checked against the
	// event-time floor the simulation advances as it dispatches events:
	// a message injected at a time before the floor was emitted in the
	// simulated past, which silently mis-times link occupancy and hides
	// traffic from time-windowed views. Violations are recorded rather
	// than panicking so a whole run can be audited in one pass.
	auditing   bool
	auditFloor int64
	violations stats.ViolationLog

	// obs, when non-nil, receives every link traversal on its windowed
	// per-link series, keyed by the injection time at that hop. Purely
	// observational; the nil default costs one nil check per hop.
	obs *telemetry.Collector
}

// New builds the fabric described by a config.Network for the given node
// count, with hop latency tm.NetworkLatency. The zero-value Network
// yields the ideal crossbar — the paper's original flat network model.
func New(net config.Network, nodes int, tm config.Timing) (*Fabric, error) {
	if err := net.Validate(nodes); err != nil {
		return nil, err
	}
	var topo Topology
	var err error
	switch net.Kind() {
	case config.TopoCrossbar:
		topo = NewCrossbar(nodes)
	case config.TopoRing:
		topo = NewRing(nodes)
	case config.TopoMesh:
		topo = NewMesh(nodes)
	case config.TopoFatTree:
		topo, err = NewFatTree(nodes)
	default:
		err = fmt.Errorf("interconnect: unknown topology %q", net.Topology)
	}
	if err != nil {
		return nil, err
	}
	return NewFabric(topo, tm.NetworkLatency), nil
}

// NewFabric wraps a topology with a per-hop latency directly.
func NewFabric(topo Topology, hopLatency int64) *Fabric {
	links := topo.Links()
	f := &Fabric{
		topo:       topo,
		hopLatency: hopLatency,
		linkBytes:  make([]int64, len(links)),
		linkMsgs:   make([]int64, len(links)),
		pairBytes:  make([][]int64, topo.Nodes()),
	}
	for i := range f.pairBytes {
		f.pairBytes[i] = make([]int64, topo.Nodes())
	}
	return f
}

// Topology returns the underlying fabric graph.
func (f *Fabric) Topology() Topology { return f.topo }

// HopLatency returns the per-hop latency in cycles.
func (f *Fabric) HopLatency() int64 { return f.hopLatency }

// ExtraHopLatency returns the latency a src->dst traversal costs beyond
// the single hop the flat network model already charges: zero on the
// crossbar (and for node-local messages), (hops-1) x hop latency on
// multi-hop fabrics. It lets protocol legs whose base cost is a flat
// timing constant (3-hop forwards, invalidation ack waves) scale with
// distance without disturbing the crossbar-compatible baseline.
//
//repro:hotpath
func (f *Fabric) ExtraHopLatency(src, dst int) int64 {
	hops := len(f.topo.Route(src, dst))
	if hops <= 1 {
		return 0
	}
	return int64(hops-1) * f.hopLatency
}

// EnableAudit switches the fabric into audit mode: injections whose
// timestamp precedes the current audit floor (see SetAuditFloor) are
// recorded as event-time violations. Counting and routing behaviour is
// unchanged, so an audited run produces byte-identical results.
func (f *Fabric) EnableAudit() { f.auditing = true }

// SetAuditFloor advances the event-time floor to t: the simulation
// calls it as each event is dispatched, so that any message injected at
// an earlier time is known to have been emitted in the simulated past.
// The floor is set, not maxed — overlapping transactions from different
// processors legitimately inject at non-monotone times, and only the
// currently dispatched event bounds what "now" may mean.
func (f *Fabric) SetAuditFloor(t int64) { f.auditFloor = t }

// Violations returns the event-time violations observed since the
// fabric was built (empty when auditing is off or the run was clean).
func (f *Fabric) Violations() []string { return f.violations.All() }

// SetObserver attaches a telemetry collector: every message charges its
// bytes to the crossed link's windowed series at the simulated time the
// message reaches that hop, alongside the existing aggregate counters.
// The windowed totals therefore reconcile exactly with LinkBytes.
func (f *Fabric) SetObserver(o *telemetry.Collector) { f.obs = o }

// Traverse routes one message of the given size from src to dst starting
// at time now: every link on the route is charged the message's bytes,
// and the message reaches each next hop one hop latency later. It
// returns the arrival time at dst. A message to the sending node
// itself crosses no link and arrives immediately; its bytes are
// accounted as local.
//
//repro:hotpath
func (f *Fabric) Traverse(src, dst int, bytes int64, now int64) int64 {
	if f.auditing && now < f.auditFloor {
		f.violations.Addf("interconnect: message %d->%d (%d bytes) injected at t=%d, before event floor %d",
			src, dst, bytes, now, f.auditFloor)
	}
	route := f.topo.Route(src, dst)
	if len(route) == 0 {
		f.localBytes += bytes
		f.localMsgs++
		return now
	}
	f.pairBytes[src][dst] += bytes
	t := now
	for _, id := range route {
		f.linkBytes[id] += bytes
		f.linkMsgs[id]++
		if f.obs != nil {
			f.obs.Link(id, bytes, t)
		}
		t += f.hopLatency
	}
	return t
}

// Deliver is Traverse for messages nothing waits on (asynchronous
// writebacks, invalidation fan-out, bulk page copies overlapped with
// their fixed cost): links are charged, the arrival time is discarded.
//
//repro:hotpath
func (f *Fabric) Deliver(src, dst int, bytes int64, now int64) {
	f.Traverse(src, dst, bytes, now)
}

// LinkBytes returns the byte counter of one link.
func (f *Fabric) LinkBytes(id int) int64 { return f.linkBytes[id] }

// TotalLinkBytes sums the byte counters over all links.
func (f *Fabric) TotalLinkBytes() int64 {
	var t int64
	for _, b := range f.linkBytes {
		t += b
	}
	return t
}

// LocalBytes returns the bytes of messages whose source and destination
// node coincided.
func (f *Fabric) LocalBytes() int64 { return f.localBytes }

// RouteMaxLinkBytes returns the byte counter of the most-loaded link on
// the src->dst route (zero for node-local routes). Contention-aware
// policies use it to ask whether the path a bulk transfer would take is
// currently the fabric's hot spot.
func (f *Fabric) RouteMaxLinkBytes(src, dst int) int64 {
	var max int64
	for _, id := range f.topo.Route(src, dst) {
		if f.linkBytes[id] > max {
			max = f.linkBytes[id]
		}
	}
	return max
}

// MeanLinkBytes returns the mean per-link byte counter over every link
// of the fabric (zero on a linkless single-node topology).
func (f *Fabric) MeanLinkBytes() int64 {
	if len(f.linkBytes) == 0 {
		return 0
	}
	return f.TotalLinkBytes() / int64(len(f.linkBytes))
}

// PairBytes returns the injected bytes for one ordered node pair.
func (f *Fabric) PairBytes(src, dst int) int64 { return f.pairBytes[src][dst] }

// Snapshot renders the fabric counters as a stats.NetStats view.
func (f *Fabric) Snapshot() *stats.NetStats {
	n := f.topo.Nodes()
	out := &stats.NetStats{
		Topology:   f.topo.Name(),
		Links:      make([]stats.LinkStat, len(f.linkBytes)),
		LocalBytes: f.localBytes,
		LocalMsgs:  f.localMsgs,
		Pairs:      make([][]int64, n),
	}
	for s := 0; s < n; s++ {
		out.Pairs[s] = append([]int64(nil), f.pairBytes[s]...)
	}
	for i, l := range f.topo.Links() {
		out.Links[i] = stats.LinkStat{Name: l.Name, Bytes: f.linkBytes[i], Msgs: f.linkMsgs[i]}
	}
	half := n / 2
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if (s < half) != (d < half) {
				out.BisectionBytes += f.pairBytes[s][d]
			}
		}
	}
	return out
}
