package graph

import "fmt"

// Contractor contracts graphs into reusable CSR storage. It exists for
// hot loops that repeatedly coarsen and discard graphs — TIMER builds
// NumHierarchies × (dimGa−2) coarse graphs per enhancement — where
// Quotient's map-and-Builder construction dominates the allocation
// profile. A warm Contractor contracts without allocating: all scratch
// arrays and the destination graph's CSR slices are grown once and
// reused.
//
// The destination Graph produced by ContractInto aliases storage owned
// by the caller-provided value and is overwritten by the next
// ContractInto into the same destination; it must not be retained
// beyond that. A Contractor is not safe for concurrent use.
type Contractor struct {
	seen   []int32 // coarse id -> cv+1 when already adjacent to cv
	pos    []int32 // coarse id -> accumulating slot in dst.ew
	mstart []int32 // coarse id -> member range start (counting sort)
	mlist  []int32 // members grouped by coarse id
	stage  Graph   // ContractSortedInto's unsorted contraction
}

// Resize returns s with length n, reusing its backing array when it is
// large enough; contents are unspecified. It is the one grow-in-place
// helper shared by the allocation-free hot paths (Contractor here,
// core's Scratch arenas).
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// ContractInto contracts g according to coarse (fine vertex -> coarse
// vertex id in [0, nCoarse)) into dst, summing vertex weights and
// aggregating edge weights; intra-group edges vanish. It computes the
// same graph as Quotient (up to adjacency order) without building an
// intermediate edge map.
func (c *Contractor) ContractInto(dst *Graph, g *Graph, coarse []int32, nCoarse int) {
	n := g.N()
	if len(coarse) != n {
		panic(fmt.Sprintf("graph: coarse length %d, want %d", len(coarse), n))
	}

	dst.vw = Resize(dst.vw, nCoarse)
	clear(dst.vw)
	c.mstart = Resize(c.mstart, nCoarse+1)
	clear(c.mstart)
	for v := 0; v < n; v++ {
		cv := coarse[v]
		if cv < 0 || int(cv) >= nCoarse {
			panic(fmt.Sprintf("graph: coarse id %d of vertex %d out of range [0,%d)", cv, v, nCoarse))
		}
		dst.vw[cv] += g.vw[v]
		c.mstart[cv+1]++
	}
	for cv := 0; cv < nCoarse; cv++ {
		c.mstart[cv+1] += c.mstart[cv]
	}
	c.mlist = Resize(c.mlist, n)
	fill := c.mstart // reuse as write cursors; restored by construction below
	for v := 0; v < n; v++ {
		cv := coarse[v]
		c.mlist[fill[cv]] = int32(v)
		fill[cv]++
	}
	// fill[cv] now equals the original mstart[cv+1]: member range of cv
	// is [prevEnd, fill[cv]) where prevEnd is fill[cv-1] (0 for cv = 0).

	c.seen = Resize(c.seen, nCoarse)
	clear(c.seen)
	c.pos = Resize(c.pos, nCoarse)

	dst.xadj = Resize(dst.xadj, nCoarse+1)
	dst.adj = Resize(dst.adj, len(g.adj))
	dst.ew = Resize(dst.ew, len(g.ew))

	cur := int32(0)
	memberLo := int32(0)
	var tew int64
	for cv := 0; cv < nCoarse; cv++ {
		dst.xadj[cv] = cur
		memberHi := fill[cv]
		stamp := int32(cv) + 1
		for _, v := range c.mlist[memberLo:memberHi] {
			lo, hi := g.xadj[v], g.xadj[v+1]
			row, roww := g.adj[lo:hi], g.ew[lo:hi:hi]
			for i, u := range row {
				cu := coarse[u]
				if int(cu) == cv {
					continue
				}
				w := roww[i]
				// Each undirected coarse edge is visited from both rows;
				// summing the heavier endpoint's half once counts it once.
				if int(cu) > cv {
					tew += w
				}
				if c.seen[cu] == stamp {
					dst.ew[c.pos[cu]] += w
				} else {
					c.seen[cu] = stamp
					c.pos[cu] = cur
					dst.adj[cur] = cu
					dst.ew[cur] = w
					cur++
				}
			}
		}
		memberLo = memberHi
	}
	dst.xadj[nCoarse] = cur
	dst.adj = dst.adj[:cur]
	dst.ew = dst.ew[:cur]
	dst.m = int(cur) / 2

	dst.tvw = g.tvw // vertex weights are only regrouped, never changed
	dst.tew = tew
}

// ContractSortedInto is ContractInto with every adjacency row sorted by
// neighbor id. The result is structurally identical to Quotient —
// Builder emits sorted rows — so call sites whose tie-breaking depends
// on adjacency order (the multilevel partitioner, the greedy mappers'
// communication graphs) can switch to reused storage without
// perturbing a single decision.
//
// It contracts into the Contractor's staging graph and transposes that
// into dst: a contracted graph is symmetric, so scanning the staging
// rows in increasing id appends each destination row's neighbors
// already in increasing order. The staging CSR is the price, retained
// at its high-water mark like the rest of the Contractor.
func (c *Contractor) ContractSortedInto(dst *Graph, g *Graph, coarse []int32, nCoarse int) {
	st := &c.stage
	c.ContractInto(st, g, coarse, nCoarse)
	dst.vw = append(dst.vw[:0], st.vw...)
	dst.xadj = append(dst.xadj[:0], st.xadj...)
	dst.adj = Resize(dst.adj, len(st.adj))
	dst.ew = Resize(dst.ew, len(st.ew))
	next := c.pos // free once ContractInto returns: row write cursors
	copy(next, st.xadj[:nCoarse])
	for cv := 0; cv < nCoarse; cv++ {
		for i := st.xadj[cv]; i < st.xadj[cv+1]; i++ {
			cu := st.adj[i]
			p := next[cu]
			dst.adj[p], dst.ew[p] = int32(cv), st.ew[i]
			next[cu] = p + 1
		}
	}
	dst.m, dst.tvw, dst.tew = st.m, st.tvw, st.tew
}
