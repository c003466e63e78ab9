package dsm

// Contention-aware MigRep: the paper's migration/replication policy
// decides purely from per-page miss counters, which on a real fabric
// can pile 4-KB page moves onto links that are already the cluster's
// hot spot. This variant consults the interconnect's per-link byte
// counters (the topology work of PR 1) before every page move and
// defers the move while the route it would take is the fabric's hot
// spot. The miss counters stay in place, so a deferred move
// re-triggers on a later miss once the route's share has evened out.
//
// The hot-spot test is relative and cumulative: a route is gated while
// its hottest link has carried more than contentionFactor times the
// fabric-wide mean per-link bytes *over the whole run so far*. The
// counters never decay, so this measures a route's share of all
// traffic, not its instantaneous load — a route gated after an early
// burst ungates only once the rest of the fabric catches up
// cumulatively. That keeps the gate a pure function of counters the
// modeled hardware already has (deterministic, no clocks or windows),
// at the cost of reacting to history rather than the present. It also
// engages on the ideal crossbar, whose dedicated per-pair links make
// any hot pair a "hot link" even though the crossbar models no
// contention.
//
// The variant is one Spec flag, DeferHotRoutes, which migRepPolicy.poke
// consults through deferHot; it is registered under "migrep-contend".
// Without migration or replication there are no moves to defer, so
// the flag does nothing.

// contentionFactor is the hot-spot test: a route is gated when its
// hottest link has carried more than this multiple of the fabric-wide
// mean per-link bytes.
const contentionFactor = 2

// ContentionMigRep is CC-NUMA with contention-aware page migration and
// replication: MigRep whose page moves are deferred while the hottest
// link on the home→requester route has carried more than
// contentionFactor times the mean per-link bytes (see the package
// comment above for the exact — cumulative — semantics).
func ContentionMigRep() Spec {
	s := MigRep()
	s.Name = "MigRep-Cont"
	s.DeferHotRoutes = true
	return s
}

// deferHot reports whether a page move from home h to requester n is
// deferred because the route's hottest link has carried more than
// contentionFactor times the fabric-wide mean per-link bytes, counting
// each deferral. It never defers unless the Spec sets DeferHotRoutes.
func (mr *migRepPolicy) deferHot(h, n int) bool {
	if !mr.m.spec.DeferHotRoutes {
		return false
	}
	f := mr.m.fabric
	if f.RouteMaxLinkBytes(h, n) <= contentionFactor*f.MeanLinkBytes() {
		return false
	}
	mr.throttled++
	return true
}
