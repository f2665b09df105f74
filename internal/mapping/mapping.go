// Package mapping defines the mapping problem of the paper (Section 1)
// and the four baseline mapping algorithms TIMER is evaluated against:
// DRB (the SCOTCH-style dual recursive bipartitioning, case c1),
// Identity (case c2), GreedyAllC (case c3) and GreedyMin (the
// LibTopoMap-style construction, case c4).
//
// A mapping µ : Va → Vp assigns every task of the application graph Ga
// to a processing element of the processor graph Gp. Its quality is the
// hop-byte objective Coco(µ) = Σ_{{u,v} ∈ Ea} ωa(u,v)·d_Gp(µ(u), µ(v))
// (paper Eq. (3)); since Gp is a partial cube, d_Gp is evaluated as the
// Hamming distance between PE labels.
package mapping

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Coco evaluates the paper's communication cost objective (Eq. (3)) for
// an assignment: Σ over edges of ωa(e) times the hop distance between
// the endpoints' PEs. Distances come from the topology's shared
// DistanceTable when it is available (identical values to the Hamming
// fallback, one byte load instead of two label loads and a popcount).
func Coco(ga *graph.Graph, assign []int32, topo *topology.Topology) int64 {
	var total int64
	if dt := topo.PeekDistanceTable(); dt != nil {
		for v := 0; v < ga.N(); v++ {
			row := dt.Row(int(assign[v]))
			nbr, ew := ga.Neighbors(v)
			for i, u := range nbr {
				if int(u) > v {
					total += ew[i] * int64(row[assign[u]])
				}
			}
		}
		return total
	}
	labels := topo.Labels
	for v := 0; v < ga.N(); v++ {
		lv := labels[assign[v]]
		nbr, ew := ga.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v {
				total += ew[i] * int64(bitvec.Hamming(lv, labels[assign[u]]))
			}
		}
	}
	return total
}

// Cut returns the weight of application edges whose endpoints are on
// different PEs (the edge-cut metric of the paper's figures).
func Cut(ga *graph.Graph, assign []int32) int64 {
	var cut int64
	for v := 0; v < ga.N(); v++ {
		nbr, ew := ga.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v && assign[u] != assign[v] {
				cut += ew[i]
			}
		}
	}
	return cut
}

// Dilation returns the maximum hop distance between the PEs of any
// communicating pair (an auxiliary quality metric). Like Coco it reads
// the shared DistanceTable when available.
func Dilation(ga *graph.Graph, assign []int32, topo *topology.Topology) int {
	max := 0
	if dt := topo.PeekDistanceTable(); dt != nil {
		for v := 0; v < ga.N(); v++ {
			row := dt.Row(int(assign[v]))
			nbr, _ := ga.Neighbors(v)
			for _, u := range nbr {
				if int(u) > v {
					if h := int(row[assign[u]]); h > max {
						max = h
					}
				}
			}
		}
		return max
	}
	labels := topo.Labels
	for v := 0; v < ga.N(); v++ {
		lv := labels[assign[v]]
		nbr, _ := ga.Neighbors(v)
		for _, u := range nbr {
			if int(u) > v {
				if h := bitvec.Hamming(lv, labels[assign[u]]); h > max {
					max = h
				}
			}
		}
	}
	return max
}

// Validate checks that assign is a legal mapping of ga onto topo and, if
// eps ≥ 0, that it satisfies the balance constraint of paper Eq. (1):
// |µ⁻¹(vp)| ≤ (1+ε)·⌈|Va| / |µ(Va)|⌉.
func Validate(ga *graph.Graph, assign []int32, topo *topology.Topology, eps float64) error {
	if len(assign) != ga.N() {
		return fmt.Errorf("mapping: %d assignments for %d vertices", len(assign), ga.N())
	}
	counts := make([]int64, topo.P())
	used := 0
	for v, pe := range assign {
		if pe < 0 || int(pe) >= topo.P() {
			return fmt.Errorf("mapping: vertex %d assigned to PE %d, out of range [0,%d)", v, pe, topo.P())
		}
		if counts[pe] == 0 {
			used++
		}
		counts[pe] += ga.VertexWeight(v)
	}
	if eps < 0 || used == 0 {
		return nil
	}
	ideal := (ga.TotalVertexWeight() + int64(used) - 1) / int64(used)
	limit := int64(math.Floor((1 + eps) * float64(ideal)))
	for pe, c := range counts {
		if c > limit {
			return fmt.Errorf("mapping: PE %d holds weight %d > limit %d (ideal %d, eps %g)",
				pe, c, limit, ideal, eps)
		}
	}
	return nil
}

// Imbalance returns the load factor of a mapping: the heaviest PE's
// weight divided by the ideal load ⌈W/P⌉ of paper Eq. (1). A perfectly
// balanced mapping scores ≤ 1; an ε-balanced one scores ≤ 1+ε.
func Imbalance(ga *graph.Graph, assign []int32, p int) float64 {
	if p <= 0 || ga.N() == 0 {
		return 0
	}
	var max int64
	for _, c := range BlockSizes(ga, assign, p) {
		if c > max {
			max = c
		}
	}
	ideal := (ga.TotalVertexWeight() + int64(p) - 1) / int64(p)
	if ideal == 0 {
		return 0
	}
	return float64(max) / float64(ideal)
}

// BlockSizes returns the weight mapped to each PE.
func BlockSizes(ga *graph.Graph, assign []int32, p int) []int64 {
	s := make([]int64, p)
	for v, pe := range assign {
		s[pe] += ga.VertexWeight(v)
	}
	return s
}

// CommGraph contracts Ga according to a partition into the communication
// graph Gc (paper Figure 1b): one vertex per block, edge weights
// aggregating inter-block communication.
func CommGraph(ga *graph.Graph, part []int32, k int) *graph.Graph {
	return ga.Quotient(part, k)
}

// Compose turns a partition of Ga and a bijection ν : blocks → PEs into
// a full mapping Assign[va] = ν[part[va]].
func Compose(part []int32, nu []int32) []int32 {
	assign := make([]int32, len(part))
	for v, b := range part {
		assign[v] = nu[b]
	}
	return assign
}

// FromPartition is the IDENTITY construction of case c2: block i of the
// partition is placed on PE i.
func FromPartition(part []int32) []int32 {
	return append([]int32(nil), part...)
}
