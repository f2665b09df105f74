package partition

import (
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// Scratch owns every reusable buffer of the multilevel partitioner — the
// base-stage analogue of core.Scratch for the TIMER hot path. One
// Partition call performs only a constant handful of heap allocations
// (the returned Part slice and Result) once its Scratch is warm:
//
//   - the hierarchy levels (coarse-graph CSR storage, fine→coarse maps
//     and per-level bisection sides), contracted in place through
//     graph.Contractor.ContractSortedInto;
//   - the recursion states of recursive bisection (per-depth induced
//     subgraphs and vertex lists, built via graph.InducedSubgraphInto);
//   - the FM/greedy-growing gain heap, gain/move buffers, the k-way
//     refinement connectivity tables and the enforceBalance target
//     accumulators;
//   - the matching/clustering orders (a rand.Perm-equivalent fill of a
//     reused buffer) and the rand.Rand itself, over a lazily seeded
//     source (see lazySource) that every recursion node reseeds.
//
// Engine workers keep one Scratch per worker goroutine and pass it via
// Config.Scratch; library callers can ignore it (Partition then borrows
// one from a package pool). A Scratch may be reused across calls but
// must never be used by two goroutines at once.
type Scratch struct {
	rng  *rand.Rand
	perm []int // rand.Perm-equivalent order buffer

	levels     []bLevel // multilevel hierarchy, finest first
	contractor graph.Contractor
	match      []int32 // heavy-edge matching partner per vertex

	// 2-way refinement and initial bisection.
	h          gainHeap
	gain       []int64
	moved      []bool
	moveLog    []int32
	bisA, bisB []int32   // greedy-growing try double buffer
	rebal      [2]idHeap // rebalanceBisection's candidates per side

	// k-way refinement, balance enforcement and clustering. conn/stamp
	// are sized to max(K, N) and shared by every stamped scan.
	conn        []int64
	stamp       []int32
	weights     []int64
	targetOrder []int32
	clWeight    []int64

	// Recursive bisection states and the shared subgraph remap buffer.
	depths []depthState
	remap  []int32
}

// NewScratch returns an empty Scratch. Buffers are grown on first use
// and retained at their high-water mark afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool hands out Scratches to Partition/PartitionProportional
// calls that did not bring their own (Config.Scratch == nil).
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// bLevel is one rung of the reusable bisection hierarchy: the level's
// graph (the caller's input at level 0, reused CSR storage above), the
// fine→coarse map that produced it and this level's bisection side.
type bLevel struct {
	g      *graph.Graph // input graph at level 0, == store above
	store  *graph.Graph // reusable coarse-graph storage, allocated once
	coarse []int32
	side   []int32
}

// level returns &sc.levels[k], extending the level storage as needed.
// The returned pointer is invalidated by the next level() call with a
// larger k (the slice may grow); callers refetch per level.
func (sc *Scratch) level(k int) *bLevel {
	for len(sc.levels) <= k {
		sc.levels = append(sc.levels, bLevel{store: new(graph.Graph)})
	}
	return &sc.levels[k]
}

// depthState is the per-recursion-depth state of recursive bisection:
// the side vertex lists, the induced subgraphs and their sub-partitions.
type depthState struct {
	left, right  []int32
	partL, partR []int32
	gL, gR       *graph.Graph
}

// depth returns &sc.depths[d], extending as needed; the same pointer
// stability caveat as level() applies.
func (sc *Scratch) depth(d int) *depthState {
	for len(sc.depths) <= d {
		sc.depths = append(sc.depths, depthState{gL: new(graph.Graph), gR: new(graph.Graph)})
	}
	return &sc.depths[d]
}

// seedRNG returns the scratch's deterministic generator, reseeded. The
// stream is identical to rand.New(rand.NewSource(seed)), so scratch
// reuse can never perturb a randomized decision; its lazySource makes
// the reseed O(1) instead of a full register fill.
func (sc *Scratch) seedRNG(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(new(lazySource))
	}
	sc.rng.Seed(seed)
	return sc.rng
}

// permInto fills buf with the permutation rand.Perm(n) would return,
// drawing from rng identically (same algorithm, same Intn sequence), so
// the allocation-free path reproduces the allocating one decision for
// decision.
func permInto(rng *rand.Rand, buf []int, n int) []int {
	m := graph.Resize(buf, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// projectInto lifts a partition of the coarse graph to the finer graph
// through the fine→coarse map, writing into dst (len(coarse) entries).
func projectInto(dst []int32, coarse []int32, coarsePart []int32) {
	for v, cv := range coarse {
		dst[v] = coarsePart[cv]
	}
}
