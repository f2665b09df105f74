package graph

import "fmt"

// Builder accumulates edges and produces an immutable Graph.
//
// Duplicate edges are merged by summing their weights; self-loops are
// silently dropped (they can never contribute to a cut or to Coco).
// Vertex weights default to 1.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	ws    []int64
	vw    []int64
	vwSet bool
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v} with weight w.
// Adding the same pair twice accumulates the weights.
func (b *Builder) AddEdge(u, v int, w int64) *Builder {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: edge {%d,%d} has non-positive weight %d", u, v, w))
	}
	if u == v {
		return b // self-loop: drop
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
	return b
}

// SetVertexWeight assigns weight w to vertex v (default 1).
func (b *Builder) SetVertexWeight(v int, w int64) *Builder {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, b.n))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: vertex %d has negative weight %d", v, w))
	}
	if !b.vwSet {
		b.vw = make([]int64, b.n)
		for i := range b.vw {
			b.vw[i] = 1
		}
		b.vwSet = true
	}
	b.vw[v] = w
	return b
}

// Build finalizes the graph. The builder may not be reused afterwards.
//
// Every row comes out sorted by neighbor id without a comparison sort.
// The half-edges are bucketed by source (each bucket entry is an edge
// index), and the buckets are transposed: scanning them in increasing
// source id appends each source to its neighbor's row, and since every
// edge is bucketed under both endpoints, each row fills in increasing
// neighbor order. Parallel edges therefore arrive back to back and
// merge into the slot just written. A first scan counts each row's
// distinct neighbors, so the adjacency and weight arrays are allocated
// once at exactly their length (FootprintBytes counts len).
func (b *Builder) Build() *Graph {
	n := b.n
	g := &Graph{xadj: make([]int32, n+1), vw: b.vw}
	if g.vw == nil {
		g.vw = make([]int64, n)
		for i := range g.vw {
			g.vw[i] = 1
		}
	}
	for _, w := range g.vw {
		g.tvw += w
	}

	// bucket[start[s]:start[s+1]] lists the edges at s in insertion
	// order; u^v^s is the other endpoint of edge {u, v} at s.
	start := make([]int32, n+1)
	for i, u := range b.us {
		start[u+1]++
		start[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	next := make([]int32, n)
	copy(next, start)
	bucket := make([]int32, 2*len(b.us))
	for i, u := range b.us {
		v := b.vs[i]
		bucket[next[u]] = int32(i)
		next[u]++
		bucket[next[v]] = int32(i)
		next[v]++
		g.tew += b.ws[i]
	}

	// Count each row's distinct neighbors: last[d] is the latest source
	// appended to row d.
	last := next
	for d := range last {
		last[d] = -1
	}
	for s := int32(0); s < int32(n); s++ {
		for _, i := range bucket[start[s]:start[s+1]] {
			if d := b.us[i] ^ b.vs[i] ^ s; last[d] != s {
				last[d] = s
				g.xadj[d+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.xadj[v+1] += g.xadj[v]
	}

	h := g.xadj[n]
	g.adj, g.ew, g.m = make([]int32, h), make([]int64, h), int(h)/2
	copy(next, g.xadj)
	for s := int32(0); s < int32(n); s++ {
		for _, i := range bucket[start[s]:start[s+1]] {
			d := b.us[i] ^ b.vs[i] ^ s
			if p := next[d]; p > g.xadj[d] && g.adj[p-1] == s {
				g.ew[p-1] += b.ws[i]
			} else {
				g.adj[p], g.ew[p] = s, b.ws[i]
				next[d] = p + 1
			}
		}
	}
	return g
}

// FromEdgeList builds an unweighted graph (all weights 1) over n vertices
// from a list of endpoint pairs. It is a convenience for tests and
// examples.
func FromEdgeList(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], 1)
	}
	return b.Build()
}

// Path returns the path graph on n vertices (0-1-2-...-n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, 1)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n vertices.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, 1)
	}
	if n > 2 {
		b.AddEdge(n-1, 0, 1)
	}
	return b.Build()
}
