package partition

import (
	"math/rand"

	"repro/internal/graph"
)

// heavyEdgeMatching computes a heavy-edge matching: visit vertices in
// random order; match each unmatched vertex to its heaviest unmatched
// neighbor (ties broken by smaller degree, which empirically keeps
// coarse graphs sparser). The fine→coarse map is written into coarse
// (grown as needed) and returned with the coarse vertex count.
func (sc *Scratch) heavyEdgeMatching(g *graph.Graph, rng *rand.Rand, maxBlockWeight int64, coarse []int32) ([]int32, int) {
	n := g.N()
	sc.perm = permInto(rng, sc.perm, n)
	match := graph.Resize(sc.match, n)
	sc.match = match
	for i := range match {
		match[i] = -1
	}
	for _, v := range sc.perm {
		if match[v] >= 0 {
			continue
		}
		bestU := -1
		var bestW int64 = -1
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if match[u] >= 0 {
				continue
			}
			// Avoid creating coarse vertices heavier than the block limit:
			// they could never be balanced later.
			if maxBlockWeight > 0 && g.VertexWeight(v)+g.VertexWeight(int(u)) > maxBlockWeight {
				continue
			}
			if ew[i] > bestW || (ew[i] == bestW && g.Degree(int(u)) < g.Degree(bestU)) {
				bestW = ew[i]
				bestU = int(u)
			}
		}
		if bestU >= 0 {
			match[v] = int32(bestU)
			match[bestU] = int32(v)
		} else {
			match[v] = int32(v) // matched to itself
		}
	}
	// Assign coarse ids: one per matched pair / singleton.
	coarse = graph.Resize(coarse, n)
	for i := range coarse {
		coarse[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if coarse[v] >= 0 {
			continue
		}
		coarse[v] = next
		if m := match[v]; int(m) != v {
			coarse[m] = next
		}
		next++
	}
	return coarse, int(next)
}

// buildHierarchy coarsens g until it has at most coarsestSize vertices
// or contraction stalls, storing every level in the scratch (level 0 is
// g itself). Coarse graphs are contracted into reused CSR storage with
// sorted adjacency, so they are identical to the graphs Quotient
// builds. Returns the number of levels in use.
func (sc *Scratch) buildHierarchy(g *graph.Graph, cfg Config, rng *rand.Rand, maxBlockWeight int64) int {
	sc.level(0).g = g
	nlev := 1
	cur := g
	for cur.N() > cfg.CoarsestSize {
		lv := sc.level(nlev)
		var nc int
		lv.coarse, nc = sc.heavyEdgeMatching(cur, rng, maxBlockWeight, lv.coarse)
		if float64(nc) > 0.96*float64(cur.N()) {
			break // contraction stalled; further levels would not shrink
		}
		sc.contractor.ContractSortedInto(lv.store, cur, lv.coarse, nc)
		lv.g = lv.store
		nlev++
		cur = lv.g
	}
	return nlev
}
