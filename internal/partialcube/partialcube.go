// Package partialcube recognizes partial cubes and computes isometric
// bitvector labelings (paper Section 3).
//
// A graph Gp is a partial cube iff (i) it is bipartite and (ii) the
// cut-sets of its convex cuts partition Ep; the equivalence relation
// behind that partition is the Djoković relation θ. For an edge
// e = {x, y}, an edge f is θ-related to e iff one endpoint of f is
// strictly closer to x than to y while the other is strictly closer to y
// than to x.
//
// The implementation follows the paper's O(|Ep|²) procedure:
//
//  1. test bipartiteness;
//  2. repeatedly pick an unclassified edge e_j = {x_j, y_j} and collect
//     its θ-class E(e_j, θ);
//  3. if a θ-class overlaps a previously computed one, reject;
//  4. assign digit j of every vertex label: 0 on the x_j-side
//     (W_{x_j,y_j}), 1 on the other side.
//
// Distances are taken from per-class BFS runs rooted at x_j and y_j, so
// no all-pairs matrix is materialized.
package partialcube

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// ErrNotPartialCube is returned (wrapped, with a reason) when the input
// graph is not a partial cube.
var ErrNotPartialCube = errors.New("not a partial cube")

// Labeling is the result of recognizing a partial cube: one label per
// vertex such that graph distance equals Hamming distance, using Dim
// digits (= number of θ-classes = number of convex cuts).
type Labeling struct {
	Dim    int
	Labels []bitvec.Label
	// Classes[j] lists the edges (as vertex pairs u < v) of θ-class j,
	// i.e. the cut-set of the j-th convex cut.
	Classes [][][2]int32
}

// Recognize tests whether g is a partial cube and, if so, returns an
// isometric labeling. The error wraps ErrNotPartialCube when the graph
// fails a structural test.
func Recognize(g *graph.Graph) (*Labeling, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("partialcube: empty graph: %w", ErrNotPartialCube)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("partialcube: graph disconnected: %w", ErrNotPartialCube)
	}
	if ok, _ := g.IsBipartite(); !ok {
		return nil, fmt.Errorf("partialcube: graph not bipartite: %w", ErrNotPartialCube)
	}
	for v := 0; v < n; v++ {
		_, ew := g.Neighbors(v)
		for _, w := range ew {
			if w != 1 {
				return nil, fmt.Errorf("partialcube: edge weights must be 1 (hop metric), got %d", w)
			}
		}
	}

	// classOf[i] = θ-class of half-edge i (index into CSR adj), -1 if not
	// yet classified. Using half-edge indices avoids a map.
	classOf := makeEdgeClassIndex(g)
	labels := make([]bitvec.Label, n)
	var classes [][][2]int32

	distX := make([]int32, n)
	distY := make([]int32, n)
	queue := make([]int32, 0, n)

	for u := 0; u < n; u++ {
		nbr, _ := g.Neighbors(u)
		for i, vv := range nbr {
			v := int(vv)
			if v < u {
				continue // handle each undirected edge once, from its smaller endpoint
			}
			if classOf.get(g, u, i) >= 0 {
				continue // already classified
			}
			j := len(classes)
			if j >= bitvec.MaxDim {
				return nil, fmt.Errorf("partialcube: more than %d θ-classes (labels limited to 64 digits)", bitvec.MaxDim)
			}
			class, err := collectThetaClass(g, u, v, distX, distY, &queue, classOf, j)
			if err != nil {
				return nil, err
			}
			classes = append(classes, class)
			// Digit j: 0 for vertices closer to u (W_{x_j, y_j}), 1 otherwise.
			// distX/distY still hold the BFS results from u and v.
			for w := 0; w < n; w++ {
				if distX[w] > distY[w] {
					labels[w] = labels[w].SetBit(j, 1)
				} else if distX[w] == distY[w] {
					// Bipartite graphs admit no ties; defensive check.
					return nil, fmt.Errorf("partialcube: distance tie at vertex %d for edge {%d,%d}: %w",
						w, u, v, ErrNotPartialCube)
				}
			}
		}
	}

	l := &Labeling{Dim: len(classes), Labels: labels, Classes: classes}
	return l, nil
}

// collectThetaClass runs BFS from both endpoints of the seed edge {x, y},
// then scans all edges to find those θ-related to it. Each found edge is
// assigned class j; if an edge already belongs to a different class, the
// cut-sets would overlap and the graph is not a partial cube.
func collectThetaClass(g *graph.Graph, x, y int, distX, distY []int32, queue *[]int32,
	classOf edgeClassIndex, j int) ([][2]int32, error) {
	n := g.N()
	for i := 0; i < n; i++ {
		distX[i], distY[i] = -1, -1
	}
	g.BFSInto(x, distX, *queue)
	g.BFSInto(y, distY, *queue)

	var class [][2]int32
	for u := 0; u < n; u++ {
		du := distX[u] - distY[u] // -1 if closer to x, +1 if closer to y
		nbr, _ := g.Neighbors(u)
		for i, vv := range nbr {
			v := int(vv)
			if v < u {
				continue
			}
			dv := distX[v] - distY[v]
			// θ-related iff the endpoints lie on opposite sides:
			// |f ∩ W_{x,y}| = |f ∩ W_{y,x}| = 1.
			if du*dv < 0 {
				if prev := classOf.get(g, u, i); prev >= 0 && prev != int32(j) {
					return nil, fmt.Errorf("partialcube: θ-classes of edges overlap at {%d,%d}: %w",
						u, v, ErrNotPartialCube)
				}
				classOf.set(g, u, i, int32(j))
				classOf.setReverse(g, u, v, int32(j))
				class = append(class, [2]int32{int32(u), int32(vv)})
			}
		}
	}
	return class, nil
}

// edgeClassIndex stores a class id per half-edge, addressed by (vertex,
// offset-in-adjacency-list).
type edgeClassIndex struct {
	cls []int32
}

func makeEdgeClassIndex(g *graph.Graph) edgeClassIndex {
	cls := make([]int32, 2*g.M())
	for i := range cls {
		cls[i] = -1
	}
	return edgeClassIndex{cls}
}

func (e edgeClassIndex) get(g *graph.Graph, u, i int) int32 {
	return e.cls[g.HalfEdgeIndex(u, i)]
}

func (e edgeClassIndex) set(g *graph.Graph, u, i int, c int32) {
	e.cls[g.HalfEdgeIndex(u, i)] = c
}

// setReverse sets the class of the reverse half-edge v -> u.
func (e edgeClassIndex) setReverse(g *graph.Graph, u, v int, c int32) {
	nbr, _ := g.Neighbors(v)
	for i, w := range nbr {
		if int(w) == u {
			e.cls[g.HalfEdgeIndex(v, i)] = c
			return
		}
	}
	panic(fmt.Sprintf("partialcube: reverse half-edge {%d,%d} missing", v, u))
}

// Verify checks that the labeling is isometric: for every vertex pair,
// graph distance equals Hamming distance of the labels. It runs one BFS
// per vertex (O(|V||E|)) and is intended for tests and small processor
// graphs.
func (l *Labeling) Verify(g *graph.Graph) error {
	n := g.N()
	if len(l.Labels) != n {
		return fmt.Errorf("partialcube: %d labels for %d vertices", len(l.Labels), n)
	}
	seen := make(map[bitvec.Label]int, n)
	for v, lab := range l.Labels {
		if prev, dup := seen[lab]; dup {
			return fmt.Errorf("partialcube: vertices %d and %d share label %s", prev, v, lab.String(l.Dim))
		}
		seen[lab] = v
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		for i := range dist {
			dist[i] = -1
		}
		g.BFSInto(v, dist, queue)
		for u := 0; u < n; u++ {
			h := bitvec.Hamming(l.Labels[v], l.Labels[u])
			if int32(h) != dist[u] {
				return fmt.Errorf("partialcube: d(%d,%d) = %d but Hamming = %d", v, u, dist[u], h)
			}
		}
	}
	return nil
}
