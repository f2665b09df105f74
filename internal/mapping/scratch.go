package mapping

import (
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Scratch owns the reusable buffers of the base-stage mapping hot path:
// the communication-graph contraction storage, the greedy constructors'
// per-PE state, and the DRB recursion's per-depth subgraphs — plus the
// partitioner scratch DRB's bisections draw from. Together with
// partition.Scratch (for cases c2–c4) and core.Scratch (for TIMER) it
// makes a warm engine worker's whole pipeline run in near-zero
// steady-state allocations.
//
// Engine workers keep one Scratch per worker goroutine; library callers
// can ignore it (the package-level GreedyAllC/GreedyMin/DRB/CommGraph
// borrow one from a pool). A Scratch must never be used by two
// goroutines at once. Methods on Scratch return slices or graphs that
// alias scratch storage, valid only until the scratch's next use.
type Scratch struct {
	// Partition is the partitioner arena DRB's recursive bisections use;
	// engine workers also pass it to the direct partition stage.
	Partition *partition.Scratch

	contractor graph.Contractor
	gc         *graph.Graph // communication-graph storage

	// Greedy constructor state (see greedyConstruct).
	nu            []int32
	peUsed        []bool
	commToMapped  []int64
	sumDistToUsed []int64

	// DRB recursion state.
	rng        *rand.Rand
	seeds      []int64 // bisection seeds, pre-order
	depths     []drbDepth
	remap      []int32
	verts, pes []int32
}

// seedRNG returns the scratch's deterministic generator, reseeded; the
// stream is identical to rand.New(rand.NewSource(seed)).
func (sc *Scratch) seedRNG(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
		return sc.rng
	}
	sc.rng.Seed(seed)
	return sc.rng
}

// NewScratch returns an empty Scratch. Buffers are grown on first use
// and retained at their high-water mark afterwards.
func NewScratch() *Scratch {
	return &Scratch{Partition: partition.NewScratch(), gc: new(graph.Graph)}
}

// scratchPool backs the package-level entry points for callers without
// a scratch of their own.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// drbDepth is the per-recursion-depth state of dual recursive
// bipartitioning: the split vertex/PE lists and the induced subgraphs.
type drbDepth struct {
	leftIdx, rightIdx []int32
	vertsL, vertsR    []int32
	pesL, pesR        []int32
	gL, gR            *graph.Graph
}

// depth returns &sc.depths[d], extending as needed. The pointer is
// invalidated by deeper depth() calls (the slice may grow); callers
// finish all writes through it before recursing.
func (sc *Scratch) depth(d int) *drbDepth {
	for len(sc.depths) <= d {
		sc.depths = append(sc.depths, drbDepth{gL: new(graph.Graph), gR: new(graph.Graph)})
	}
	return &sc.depths[d]
}

// CommGraph contracts Ga according to a partition into the
// communication graph Gc, like the package-level CommGraph but into
// reused storage with sorted adjacency — the result is identical to
// graph.Quotient's, so downstream tie-breaking is unaffected. The
// returned graph aliases scratch storage.
func (sc *Scratch) CommGraph(ga *graph.Graph, part []int32, k int) *graph.Graph {
	sc.contractor.ContractSortedInto(sc.gc, ga, part, k)
	return sc.gc
}
