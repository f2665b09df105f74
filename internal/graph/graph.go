// Package graph provides the weighted undirected graph substrate used by
// every other package in this repository: application graphs, processor
// graphs, communication graphs and all coarsened graphs are values of
// graph.Graph.
//
// The representation is a compressed sparse row (CSR) adjacency structure
// with integer vertex and edge weights. Graphs are immutable after
// construction via Builder, which makes them safe to share between
// concurrent readers.
package graph

import "fmt"

// Graph is an immutable weighted undirected graph in CSR form.
//
// Vertices are identified by integers 0..N()-1. Every undirected edge
// {u, v} is stored twice, once in the adjacency list of each endpoint,
// with the same weight. Self-loops are not representable; Builder drops
// them on construction.
type Graph struct {
	xadj []int32 // offsets into adj/ew; len = n+1
	adj  []int32 // concatenated adjacency lists; len = 2m
	ew   []int64 // edge weights parallel to adj
	vw   []int64 // vertex weights; len = n
	m    int     // number of undirected edges
	tvw  int64   // cached total vertex weight
	tew  int64   // cached total edge weight (each undirected edge once)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.vw) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	return int(g.xadj[v+1] - g.xadj[v])
}

// Neighbors returns the adjacency list of v and the parallel slice of edge
// weights. The returned slices alias the graph's internal storage and must
// not be modified.
func (g *Graph) Neighbors(v int) ([]int32, []int64) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	return g.adj[lo:hi], g.ew[lo:hi]
}

// HalfEdgeIndex returns the position in the graph's half-edge arrays of
// the i-th neighbor of u, usable as a stable key for per-half-edge
// annotations (e.g. θ-class ids in package partialcube).
func (g *Graph) HalfEdgeIndex(u, i int) int { return int(g.xadj[u]) + i }

// VertexWeight returns the weight of vertex v.
func (g *Graph) VertexWeight(v int) int64 { return g.vw[v] }

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 { return g.tvw }

// TotalEdgeWeight returns the sum of all edge weights, counting each
// undirected edge once.
func (g *Graph) TotalEdgeWeight() int64 { return g.tew }

// HasEdge reports whether {u, v} is an edge, using a linear scan of the
// smaller adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbr, _ := g.Neighbors(u)
	for _, w := range nbr {
		if int(w) == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v}, or 0 if the edge does not
// exist.
func (g *Graph) EdgeWeight(u, v int) int64 {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbr, ew := g.Neighbors(u)
	for i, w := range nbr {
		if int(w) == v {
			return ew[i]
		}
	}
	return 0
}

// WeightedDegree returns the sum of weights of edges incident to v.
func (g *Graph) WeightedDegree(v int) int64 {
	_, ew := g.Neighbors(v)
	var s int64
	for _, w := range ew {
		s += w
	}
	return s
}

// MaxDegree returns the largest vertex degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Validate checks internal CSR invariants: symmetry of the adjacency
// structure, matching reciprocal edge weights, absence of self-loops and
// consistency of cached totals. It is used by tests and by I/O paths.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.xadj) != n+1 {
		return fmt.Errorf("graph: xadj length %d, want %d", len(g.xadj), n+1)
	}
	if g.xadj[0] != 0 {
		return fmt.Errorf("graph: xadj[0] = %d, want 0", g.xadj[0])
	}
	if int(g.xadj[n]) != len(g.adj) {
		return fmt.Errorf("graph: xadj[n] = %d, want %d", g.xadj[n], len(g.adj))
	}
	if len(g.adj) != 2*g.m {
		return fmt.Errorf("graph: adj length %d, want 2m = %d", len(g.adj), 2*g.m)
	}
	if len(g.ew) != len(g.adj) {
		return fmt.Errorf("graph: ew length %d, want %d", len(g.ew), len(g.adj))
	}
	var tvw, tew int64
	for v := 0; v < n; v++ {
		if g.vw[v] < 0 {
			return fmt.Errorf("graph: vertex %d has negative weight %d", v, g.vw[v])
		}
		tvw += g.vw[v]
		if g.xadj[v] > g.xadj[v+1] {
			return fmt.Errorf("graph: xadj not monotone at %d", v)
		}
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if int(u) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if ew[i] <= 0 {
				return fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", v, u, ew[i])
			}
			if w := g.EdgeWeight(int(u), v); w != ew[i] {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}: %d vs %d", v, u, ew[i], w)
			}
			if int(u) > v {
				tew += ew[i]
			}
		}
	}
	if tvw != g.tvw {
		return fmt.Errorf("graph: cached total vertex weight %d, recomputed %d", g.tvw, tvw)
	}
	if tew != g.tew {
		return fmt.Errorf("graph: cached total edge weight %d, recomputed %d", g.tew, tew)
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}
