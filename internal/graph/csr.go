package graph

import "fmt"

// FromCSR adopts pre-built CSR arrays as a Graph without copying them —
// the constructor of the streaming ingestion loader, which fills
// adjacency in place and must not pay Builder's edge-record
// materialization (3x the final footprint) to finalize.
//
// The arrays are validated in O(n + m): monotone offsets, in-range
// neighbors, no self-loops, positive edge weights, non-negative vertex
// weights, and per-row sorted strictly-increasing adjacency (which also
// rules out duplicate edges). Symmetry of the adjacency structure —
// every half-edge (u,v,w) having its mirror (v,u,w) — is the one CSR
// invariant not checked here, because any direct check costs an extra
// pass with random access; callers produce both half-edges of every
// edge by construction, and tests back them with Validate. The arrays
// are owned by the returned graph afterwards and must not be modified.
func FromCSR(xadj []int32, adj []int32, ew []int64, vw []int64) (*Graph, error) {
	n := len(vw)
	if len(xadj) != n+1 {
		return nil, fmt.Errorf("graph: xadj length %d, want %d", len(xadj), n+1)
	}
	if xadj[0] != 0 {
		return nil, fmt.Errorf("graph: xadj[0] = %d, want 0", xadj[0])
	}
	if int(xadj[n]) != len(adj) {
		return nil, fmt.Errorf("graph: xadj[n] = %d, want %d", xadj[n], len(adj))
	}
	if len(ew) != len(adj) {
		return nil, fmt.Errorf("graph: ew length %d, want %d", len(ew), len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd half-edge count %d", len(adj))
	}
	g := &Graph{xadj: xadj, adj: adj, ew: ew, vw: vw, m: len(adj) / 2}
	for v := 0; v < n; v++ {
		if vw[v] < 0 {
			return nil, fmt.Errorf("graph: vertex %d has negative weight %d", v, vw[v])
		}
		g.tvw += vw[v]
		lo, hi := xadj[v], xadj[v+1]
		if lo > hi || int(hi) > len(adj) {
			return nil, fmt.Errorf("graph: xadj not monotone within [0, %d] at %d", len(adj), v)
		}
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			u := adj[i]
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return nil, fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if u <= prev {
				return nil, fmt.Errorf("graph: adjacency of vertex %d not strictly increasing at %d", v, u)
			}
			prev = u
			if ew[i] <= 0 {
				return nil, fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", v, u, ew[i])
			}
			if int(u) > v {
				g.tew += ew[i]
			}
		}
	}
	return g, nil
}
