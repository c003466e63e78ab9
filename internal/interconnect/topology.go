// Package interconnect models the cluster fabric as an explicit graph
// of nodes, switches and unidirectional links with one of four fixed
// topologies and deterministic routing. A Fabric wraps a Topology with
// a per-hop latency and per-link byte/message counters, so that every
// protocol message the DSM machines exchange can be attributed to the
// physical links it crosses. Links have infinite bandwidth.
//
// The ideal crossbar — one dedicated single-hop link per ordered node
// pair — reproduces the paper's original flat network-latency model
// exactly while still attributing traffic per link; the ring, 2D mesh
// and fat-tree fabrics open the topology axis the paper holds fixed.
package interconnect

import (
	"fmt"

	"repro/internal/config"
)

// Link is one unidirectional channel of the fabric graph. Endpoints are
// node ids in [0, Nodes) or switch ids at Nodes and above.
type Link struct {
	ID   int
	Src  int
	Dst  int
	Name string
}

// Topology is a static fabric graph with deterministic routing.
type Topology interface {
	// Name identifies the topology ("crossbar", "ring", ...).
	Name() string

	// Nodes returns the number of end nodes (switches excluded).
	Nodes() int

	// Links returns every link in id order.
	Links() []Link

	// Route returns the ids of the links a message from src to dst
	// traverses, in order. It is empty exactly when src == dst. The
	// returned slice is owned by the topology and must not be mutated:
	// routes are precomputed at construction so the per-message hot
	// path allocates nothing.
	Route(src, dst int) []int
}

// precomputeRoutes tabulates every (src, dst) route of an n-node
// topology so Route becomes an allocation-free table lookup.
func precomputeRoutes(n int, route func(src, dst int) []int) [][][]int {
	routes := make([][][]int, n)
	for s := 0; s < n; s++ {
		routes[s] = make([][]int, n)
		for d := 0; d < n; d++ {
			routes[s][d] = route(s, d)
		}
	}
	return routes
}

// Crossbar is the ideal fabric: a dedicated link for every ordered node
// pair, so every route is a single hop and no two flows share a link.
type Crossbar struct {
	nodes  int
	links  []Link
	routes [][][]int
}

// NewCrossbar builds an n-node crossbar.
func NewCrossbar(n int) *Crossbar {
	c := &Crossbar{nodes: n}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			c.links = append(c.links, Link{
				ID: len(c.links), Src: s, Dst: d,
				Name: fmt.Sprintf("xbar:%d->%d", s, d),
			})
		}
	}
	c.routes = precomputeRoutes(n, c.computeRoute)
	return c
}

// Name implements Topology.
func (c *Crossbar) Name() string { return "crossbar" }

// Nodes implements Topology.
func (c *Crossbar) Nodes() int { return c.nodes }

// Links implements Topology.
func (c *Crossbar) Links() []Link { return c.links }

// Route implements Topology: the single dedicated link.
func (c *Crossbar) Route(src, dst int) []int { return c.routes[src][dst] }

func (c *Crossbar) computeRoute(src, dst int) []int {
	if src == dst {
		return nil
	}
	// Links are laid out src-major with the diagonal removed.
	i := src*(c.nodes-1) + dst
	if dst > src {
		i--
	}
	return []int{i}
}

// Ring is a bidirectional ring: each node has one clockwise and one
// counter-clockwise link, and messages take the shorter direction
// (clockwise on ties).
type Ring struct {
	nodes  int
	links  []Link
	routes [][][]int
}

// NewRing builds an n-node bidirectional ring.
func NewRing(n int) *Ring {
	r := &Ring{nodes: n}
	for i := 0; i < n; i++ { // clockwise: i -> i+1
		r.links = append(r.links, Link{
			ID: i, Src: i, Dst: (i + 1) % n,
			Name: fmt.Sprintf("ring:%d->%d", i, (i+1)%n),
		})
	}
	for i := 0; i < n; i++ { // counter-clockwise: i -> i-1
		d := (i - 1 + n) % n
		r.links = append(r.links, Link{
			ID: n + i, Src: i, Dst: d,
			Name: fmt.Sprintf("ring:%d->%d", i, d),
		})
	}
	r.routes = precomputeRoutes(n, r.computeRoute)
	return r
}

// Name implements Topology.
func (r *Ring) Name() string { return "ring" }

// Nodes implements Topology.
func (r *Ring) Nodes() int { return r.nodes }

// Links implements Topology.
func (r *Ring) Links() []Link { return r.links }

// Route implements Topology: shortest direction, clockwise on ties.
func (r *Ring) Route(src, dst int) []int { return r.routes[src][dst] }

func (r *Ring) computeRoute(src, dst int) []int {
	if src == dst {
		return nil
	}
	n := r.nodes
	cw := (dst - src + n) % n
	if cw <= n-cw {
		route := make([]int, 0, cw)
		for i, at := 0, src; i < cw; i++ {
			route = append(route, at) // clockwise link id == src node id
			at = (at + 1) % n
		}
		return route
	}
	ccw := n - cw
	route := make([]int, 0, ccw)
	for i, at := 0, src; i < ccw; i++ {
		route = append(route, n+at) // ccw link id == n + src node id
		at = (at - 1 + n) % n
	}
	return route
}

// Mesh is a 2D mesh of width x height nodes (node id = y*width + x) with
// unidirectional links between grid neighbours and deterministic
// dimension-order (X then Y) routing.
type Mesh struct {
	nodes         int
	width, height int
	links         []Link
	// linkAt[from][to] is the link id of the direct channel from one
	// grid neighbour to another, keyed by node ids.
	linkAt map[[2]int]int
	routes [][][]int
}

// MeshDims returns the most nearly square factorization w*h == n with
// w >= h.
func MeshDims(n int) (w, h int) {
	h = 1
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			h = f
		}
	}
	return n / h, h
}

// NewMesh builds the most nearly square mesh over n nodes (MeshDims).
func NewMesh(n int) *Mesh {
	w, h := MeshDims(n)
	m := &Mesh{nodes: n, width: w, height: h, linkAt: make(map[[2]int]int)}
	add := func(from, to int) {
		m.linkAt[[2]int{from, to}] = len(m.links)
		m.links = append(m.links, Link{
			ID: len(m.links), Src: from, Dst: to,
			Name: fmt.Sprintf("mesh:%d->%d", from, to),
		})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				add(id, id+1)
				add(id+1, id)
			}
			if y+1 < h {
				add(id, id+w)
				add(id+w, id)
			}
		}
	}
	m.routes = precomputeRoutes(n, m.computeRoute)
	return m
}

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// Nodes implements Topology.
func (m *Mesh) Nodes() int { return m.nodes }

// Links implements Topology.
func (m *Mesh) Links() []Link { return m.links }

// Dims returns the mesh width and height.
func (m *Mesh) Dims() (w, h int) { return m.width, m.height }

// Route implements Topology with dimension-order routing: correct the X
// coordinate first, then Y.
func (m *Mesh) Route(src, dst int) []int { return m.routes[src][dst] }

func (m *Mesh) computeRoute(src, dst int) []int {
	if src == dst {
		return nil
	}
	sx, sy := src%m.width, src/m.width
	dx, dy := dst%m.width, dst/m.width
	var route []int
	at := src
	for sx != dx {
		next := at + 1
		if dx < sx {
			next = at - 1
		}
		route = append(route, m.linkAt[[2]int{at, next}])
		at = next
		sx = at % m.width
	}
	for sy != dy {
		next := at + m.width
		if dy < sy {
			next = at - m.width
		}
		route = append(route, m.linkAt[[2]int{at, next}])
		at = next
		sy = at / m.width
	}
	return route
}

// FatTree is a two-level tree: leaf switches each serving arity nodes,
// all joined by one root switch, with up-down routing. Switch ids follow
// the node ids: leaves at Nodes()..Nodes()+leaves-1, root last.
type FatTree struct {
	nodes  int
	arity  int
	leaves int
	links  []Link
	routes [][][]int
	// per node: up link to its leaf, down link from its leaf.
	nodeUp, nodeDown []int
	// per leaf: up link to the root, down link from the root.
	leafUp, leafDown []int
}

// NewFatTree builds a fat-tree over n nodes with config.FatTreeArity
// nodes per leaf switch, which must divide n.
func NewFatTree(n int) (*FatTree, error) {
	arity := config.FatTreeArity
	if n%arity != 0 {
		return nil, fmt.Errorf("interconnect: fat-tree arity %d does not divide %d nodes", arity, n)
	}
	f := &FatTree{
		nodes: n, arity: arity, leaves: n / arity,
		nodeUp: make([]int, n), nodeDown: make([]int, n),
		leafUp: make([]int, n/arity), leafDown: make([]int, n/arity),
	}
	root := n + f.leaves
	add := func(src, dst int, name string) int {
		id := len(f.links)
		f.links = append(f.links, Link{ID: id, Src: src, Dst: dst, Name: name})
		return id
	}
	for i := 0; i < n; i++ {
		leaf := n + i/arity
		f.nodeUp[i] = add(i, leaf, fmt.Sprintf("ftree:n%d->l%d", i, i/arity))
		f.nodeDown[i] = add(leaf, i, fmt.Sprintf("ftree:l%d->n%d", i/arity, i))
	}
	for l := 0; l < f.leaves; l++ {
		f.leafUp[l] = add(n+l, root, fmt.Sprintf("ftree:l%d->root", l))
		f.leafDown[l] = add(root, n+l, fmt.Sprintf("ftree:root->l%d", l))
	}
	f.routes = precomputeRoutes(n, f.computeRoute)
	return f, nil
}

// Name implements Topology.
func (f *FatTree) Name() string { return "fattree" }

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.nodes }

// Links implements Topology.
func (f *FatTree) Links() []Link { return f.links }

// Route implements Topology with up-down routing: up to the common
// ancestor (leaf or root), then down.
func (f *FatTree) Route(src, dst int) []int { return f.routes[src][dst] }

func (f *FatTree) computeRoute(src, dst int) []int {
	if src == dst {
		return nil
	}
	sl, dl := src/f.arity, dst/f.arity
	if sl == dl {
		return []int{f.nodeUp[src], f.nodeDown[dst]}
	}
	return []int{f.nodeUp[src], f.leafUp[sl], f.leafDown[dl], f.nodeDown[dst]}
}
