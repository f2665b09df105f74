// Package routing simulates shortest-path message routing on a
// partial-cube processor graph. The paper abstracts communication cost
// by assuming "routing on shortest paths in Gp" (Section 1); this
// package makes that assumption executable: it routes every application
// edge's traffic along a canonical shortest path and reports per-link
// loads, validating that Coco equals the total hop-bytes and exposing
// link congestion — a cost component Coco deliberately ignores.
//
// Routing uses the partial-cube labels: moving from PE x toward PE y
// always flips one label digit on which x and y disagree (every such
// feasible flip is one hop of a shortest path). Digits are tried in a
// canonical order, giving deterministic dimension-order-style routes —
// on grids and hypercubes this degenerates to classic dimension-order
// (XY/e-cube) routing.
package routing

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Result summarizes a routing simulation.
type Result struct {
	// TotalHopBytes is Σ over routed edges of weight × path length. It
	// equals Coco of the mapping (verified by tests): shortest-path
	// length is the Hamming distance.
	TotalHopBytes int64
	// MaxLinkLoad is the heaviest load on any single link of Gp — the
	// congestion bottleneck under deterministic routing.
	MaxLinkLoad int64
	// AvgLinkLoad is the mean load over all links of Gp.
	AvgLinkLoad float64
	// UsedLinks counts links carrying non-zero load.
	UsedLinks int
	// LinkLoad maps each half-edge index of Gp (see Graph.HalfEdgeIndex)
	// to its directed load; the undirected load of a link is the sum of
	// its two directions.
	LinkLoad []int64
}

// Router precomputes the neighbor-by-digit table of a topology.
type Router struct {
	topo *topology.Topology
	// next[p*dim+j] = neighbor of PE p whose label differs exactly in
	// digit j, or -1 if no such PE exists.
	next []int32
	// halfEdge[p*dim+j] = half-edge index of the link p -> next, or -1.
	halfEdge []int32
}

// NewRouter builds the routing tables (O(|Vp|·dim)).
func NewRouter(topo *topology.Topology) *Router {
	dim := topo.Dim
	r := &Router{
		topo:     topo,
		next:     make([]int32, topo.P()*dim),
		halfEdge: make([]int32, topo.P()*dim),
	}
	for i := range r.next {
		r.next[i] = -1
		r.halfEdge[i] = -1
	}
	g := topo.G
	for p := 0; p < topo.P(); p++ {
		nbr, _ := g.Neighbors(p)
		for i, q := range nbr {
			diff := uint64(topo.Labels[p] ^ topo.Labels[q])
			// Adjacent PEs of a partial cube differ in exactly one digit.
			j := 0
			for diff>>uint(j)&1 == 0 {
				j++
			}
			r.next[p*dim+j] = q
			r.halfEdge[p*dim+j] = int32(g.HalfEdgeIndex(p, i))
		}
	}
	return r
}

// Simulate routes every application edge's weight along its canonical
// shortest path and aggregates link loads.
func Simulate(ga *graph.Graph, assign []int32, topo *topology.Topology) (*Result, error) {
	if len(assign) != ga.N() {
		return nil, fmt.Errorf("routing: %d assignments for %d vertices", len(assign), ga.N())
	}
	r := NewRouter(topo)
	res := &Result{LinkLoad: make([]int64, 2*topo.G.M())}
	dim := topo.Dim
	for a := 0; a < ga.N(); a++ {
		pa := int(assign[a])
		la := topo.Labels[pa]
		nbr, ew := ga.Neighbors(a)
		for i, bb := range nbr {
			if int(bb) <= a {
				continue
			}
			pb := int(assign[bb])
			if pa == pb {
				continue
			}
			w := ew[i]
			res.TotalHopBytes += w * int64(bitvec.Hamming(la, topo.Labels[pb]))
			// Walk the canonical path, loading each directed link.
			cur := pa
			for cur != pb {
				diff := uint64(topo.Labels[cur] ^ topo.Labels[pb])
				for j := 0; j < dim; j++ {
					if diff>>uint(j)&1 == 0 {
						continue
					}
					if q := r.next[cur*dim+j]; q >= 0 {
						res.LinkLoad[r.halfEdge[cur*dim+j]] += w
						cur = int(q)
						break
					}
				}
			}
		}
	}
	var total int64
	for _, l := range res.LinkLoad {
		if l > 0 {
			res.UsedLinks++
			total += l
		}
		if l > res.MaxLinkLoad {
			res.MaxLinkLoad = l
		}
	}
	if len(res.LinkLoad) > 0 {
		res.AvgLinkLoad = float64(total) / float64(len(res.LinkLoad))
	}
	return res, nil
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("hop-bytes=%d maxLink=%d avgLink=%.1f usedLinks=%d",
		r.TotalHopBytes, r.MaxLinkLoad, r.AvgLinkLoad, r.UsedLinks)
}
