package graph

import "fmt"

// InducedSubgraph returns the subgraph induced by the given vertices
// (which must be distinct) and a mapping old-vertex -> new-vertex that is
// -1 for vertices not in the subgraph. Vertex and edge weights carry over.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32) {
	remap := make([]int32, g.N())
	for i := range remap {
		remap[i] = -1
	}
	for newID, v := range vertices {
		if remap[v] != -1 {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced subgraph", v))
		}
		remap[v] = int32(newID)
	}
	b := NewBuilder(len(vertices))
	for newID, v := range vertices {
		b.SetVertexWeight(newID, g.VertexWeight(int(v)))
		nbr, ew := g.Neighbors(int(v))
		for i, u := range nbr {
			nu := remap[u]
			if nu >= 0 && nu > int32(newID) {
				b.AddEdge(newID, int(nu), ew[i])
			}
		}
	}
	return b.Build(), remap
}

// InducedSubgraphInto writes the subgraph of g induced by vertices into
// dst, reusing dst's storage and remap as scratch (grown as needed; the
// grown remap is returned for reuse). vertices must be strictly
// increasing: the old→new renumbering is then monotone, so copying each
// CSR row in order yields the same sorted adjacency Builder would
// produce, making the result byte-equivalent to InducedSubgraph without
// Builder's bucketing and transposition or any steady-state allocation.
// Grown adjacency storage is sized to the induced rows, counted before
// the copy, so a subgraph never reserves its parent's edge count.
//
// dst aliases caller-owned storage and is overwritten by the next call
// into it; it must not be retained beyond that.
func InducedSubgraphInto(dst *Graph, g *Graph, vertices []int32, remap []int32) []int32 {
	n := g.N()
	remap = Resize(remap, n)
	for i := range remap {
		remap[i] = -1
	}
	for newID, v := range vertices {
		if newID > 0 && vertices[newID-1] >= v {
			panic(fmt.Sprintf("graph: induced vertex list not strictly increasing at %d", newID))
		}
		remap[v] = int32(newID)
	}
	ns := len(vertices)
	m := 0
	for _, v := range vertices {
		for _, u := range g.adj[g.xadj[v]:g.xadj[v+1]] {
			if remap[u] >= 0 {
				m++
			}
		}
	}
	dst.vw = Resize(dst.vw, ns)
	dst.xadj = Resize(dst.xadj, ns+1)
	dst.adj = Resize(dst.adj, m)
	dst.ew = Resize(dst.ew, m)

	cur := int32(0)
	var tvw, tew int64
	for newID, v := range vertices {
		dst.xadj[newID] = cur
		dst.vw[newID] = g.vw[v]
		tvw += g.vw[v]
		lo, hi := g.xadj[v], g.xadj[v+1]
		for i := lo; i < hi; i++ {
			nu := remap[g.adj[i]]
			if nu < 0 {
				continue
			}
			dst.adj[cur] = nu
			dst.ew[cur] = g.ew[i]
			if nu > int32(newID) {
				tew += g.ew[i]
			}
			cur++
		}
	}
	dst.xadj[ns] = cur
	dst.m = int(cur) / 2
	dst.tvw = tvw
	dst.tew = tew
	return remap
}

// Quotient contracts g according to the block assignment part (vertex ->
// block id in [0, k)). The result has k vertices; vertex weights are block
// weight sums and edge weights aggregate the weights of all original edges
// between different blocks. This is exactly the construction of the
// communication graph Gc from a partition of Ga (paper Figure 1a/1b).
//
// Blocks may be empty; empty blocks become isolated vertices with weight 0.
func (g *Graph) Quotient(part []int32, k int) *Graph {
	if len(part) != g.N() {
		panic(fmt.Sprintf("graph: partition length %d, want %d", len(part), g.N()))
	}
	type key struct{ a, b int32 }
	agg := make(map[key]int64)
	vw := make([]int64, k)
	for v := 0; v < g.N(); v++ {
		pv := part[v]
		if pv < 0 || int(pv) >= k {
			panic(fmt.Sprintf("graph: block id %d of vertex %d out of range [0,%d)", pv, v, k))
		}
		vw[pv] += g.VertexWeight(v)
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			pu := part[u]
			if pu <= pv { // count each unordered block pair once, skip intra-block
				continue
			}
			agg[key{pv, pu}] += ew[i]
		}
	}
	b := NewBuilder(k)
	for v := 0; v < k; v++ {
		b.SetVertexWeight(v, vw[v])
	}
	for e, w := range agg {
		b.AddEdge(int(e.a), int(e.b), w)
	}
	return b.Build()
}
