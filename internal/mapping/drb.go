package mapping

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topology"
)

// DRBConfig controls the dual recursive bipartitioning mapper.
type DRBConfig struct {
	// Epsilon is the per-level balance slack (default 0.03).
	Epsilon float64
	Seed    int64
	// Fast selects cheaper bisection parameters (fewer initial tries,
	// fewer FM passes, earlier coarsening stop). SCOTCH's generic mapper
	// is much faster than a full KaHIP partition (the paper measures it
	// at ~19× on average); Fast reproduces that speed/quality trade-off.
	Fast bool
	// Spawn, when non-nil, lets DRB offload the right half of a
	// bisection onto another goroutine, under partition.Config.Spawn's
	// contract: run the function (on any goroutine) and return true, or
	// decline with false and the caller runs the half inline; the hook
	// must be safe for concurrent calls. The mapping is byte-identical
	// to the sequential one: the bisection seeds are drawn up front in
	// pre-order, a spawned half guesses its first seed index, and a
	// wrong guess is recomputed inline after the join (see drbRecurse).
	// The engine's wide mode supplies it; nil keeps one goroutine.
	Spawn func(func()) bool
}

// DRB maps ga onto topo by dual recursive bipartitioning (paper case c1;
// the strategy of SCOTCH's generic mapping routine, Pellegrini [22]):
// the PE set is split in half along a partial-cube digit (a convex cut
// of Gp), the application (sub)graph is bisected with matching weight
// proportions, and the halves are assigned to each other recursively.
//
// It returns the assignment vector Va → PE.
func DRB(ga *graph.Graph, topo *topology.Topology, cfg DRBConfig) ([]int32, error) {
	sc := getScratch()
	assign, err := sc.DRB(ga, topo, cfg)
	putScratch(sc)
	return assign, err
}

// DRB is the scratch form of the package-level DRB: all recursion state
// (split lists, induced subgraphs, bisection hierarchies) lives in the
// scratch, so a warm call allocates only the returned assignment.
func (sc *Scratch) DRB(ga *graph.Graph, topo *topology.Topology, cfg DRBConfig) ([]int32, error) {
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.03
	}
	if ga.N() < topo.P() {
		return nil, fmt.Errorf("mapping: application graph has %d vertices for %d PEs", ga.N(), topo.P())
	}
	// Each of the P−1 inner nodes of the PE recursion draws at most one
	// bisection seed, in pre-order, from one stream: draw them up front.
	rng := sc.seedRNG(cfg.Seed)
	seeds := graph.Resize(sc.seeds, topo.P()-1)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	pes := graph.Resize(sc.pes, topo.P())
	for i := range pes {
		pes[i] = int32(i)
	}
	verts := graph.Resize(sc.verts, ga.N())
	for i := range verts {
		verts[i] = int32(i)
	}
	sc.seeds, sc.pes, sc.verts = seeds, pes, verts
	run := &drbRun{
		topo:   topo,
		pcfg:   partition.Config{K: 2, Epsilon: cfg.Epsilon, Seed: cfg.Seed},
		spawn:  cfg.Spawn,
		seeds:  seeds,
		assign: make([]int32, ga.N()),
	}
	if cfg.Fast {
		run.pcfg.InitialTries = 2
		run.pcfg.FMPasses = 1
		run.pcfg.CoarsestSize = 400
	}
	sc.drbRecurse(run, ga, verts, pes, 0, 0)
	return run.assign, nil
}

// drbRun is one DRB call's state, shared by every recursion node and
// every spawned half. Only assign is written, each node writing the
// entries of its own vertices.
type drbRun struct {
	topo   *topology.Topology
	pcfg   partition.Config // Scratch is set per goroutine
	spawn  func(func()) bool
	seeds  []int64
	assign []int32
}

// singleSide is the bisection of a one-vertex subgraph: the vertex goes
// left, and no seed is drawn.
var singleSide = []int32{0}

// drbRecurse assigns the vertices of sub (a subset of the original Ga,
// as an induced subgraph with ids verts) to the PE subset pes. next is
// the index in run.seeds of the subtree's first bisection seed; the
// index after its last is returned. A node whose subgraph has a single
// vertex draws no seed, so a subtree's seed count is known only once it
// has run. depth indexes the scratch's per-recursion-level storage.
func (sc *Scratch) drbRecurse(run *drbRun, sub *graph.Graph, verts, pes []int32, next, depth int) int {
	if len(pes) == 1 {
		for _, v := range verts {
			run.assign[v] = pes[0]
		}
		return next
	}
	// All depth-state writes happen before recursing: deeper calls may
	// grow sc.depths and invalidate the pointer.
	ds := sc.depth(depth)
	pesL, pesR := splitPEsInto(run.topo, pes, ds.pesL[:0], ds.pesR[:0])
	fracL := float64(len(pesL)) / float64(len(pes))

	side := singleSide
	if sub.N() != 1 {
		pcfg := run.pcfg
		pcfg.Scratch = sc.Partition
		side = bisectProportional(sub, pcfg, fracL, run.seeds[next])
		next++
	}

	leftIdx, rightIdx := ds.leftIdx[:0], ds.rightIdx[:0]
	for v := 0; v < sub.N(); v++ {
		if side[v] == 0 {
			leftIdx = append(leftIdx, int32(v))
		} else {
			rightIdx = append(rightIdx, int32(v))
		}
	}
	subL, subR := ds.gL, ds.gR
	sc.remap = graph.InducedSubgraphInto(subL, sub, leftIdx, sc.remap)
	sc.remap = graph.InducedSubgraphInto(subR, sub, rightIdx, sc.remap)
	vertsL := graph.Resize(ds.vertsL, len(leftIdx))
	for i, v := range leftIdx {
		vertsL[i] = verts[v]
	}
	vertsR := graph.Resize(ds.vertsR, len(rightIdx))
	for i, v := range rightIdx {
		vertsR[i] = verts[v]
	}
	ds.leftIdx, ds.rightIdx = leftIdx, rightIdx
	ds.vertsL, ds.vertsR = vertsL, vertsR
	ds.pesL, ds.pesR = pesL, pesR

	// Offload the right half when the caller provided Spawn and the half
	// is more than a leaf fill. It starts at the seed index the left
	// half ends at when every left inner node draws a seed. The spawned
	// task owns a pooled Scratch, and subR/vertsR/pesR stay untouched in
	// this depth's state while the left half runs. After the join, a
	// left half that ended elsewhere means the guess was wrong: the right
	// half is recomputed inline from the true index, which overwrites
	// only its own vertices' assignments.
	if run.spawn != nil && len(pesR) > 1 {
		guess := next + len(pesL) - 1
		done := make(chan struct{})
		var rightEnd int
		if run.spawn(func() {
			defer close(done)
			rsc := getScratch()
			rightEnd = rsc.drbRecurse(run, subR, vertsR, pesR, guess, 0)
			putScratch(rsc)
		}) {
			leftEnd := sc.drbRecurse(run, subL, vertsL, pesL, next, depth+1)
			<-done
			if leftEnd == guess {
				return rightEnd
			}
			return sc.drbRecurse(run, subR, vertsR, pesR, leftEnd, depth+1)
		}
	}
	next = sc.drbRecurse(run, subL, vertsL, pesL, next, depth+1)
	return sc.drbRecurse(run, subR, vertsR, pesR, next, depth+1)
}

// splitPEsInto halves a PE subset along the label digit that divides it
// most evenly — a convex cut of the processor graph, which is exactly
// how a partial cube decomposes recursively (paper Section 2). The
// halves are appended to the provided buffers.
func splitPEsInto(topo *topology.Topology, pes []int32, left, right []int32) ([]int32, []int32) {
	bestDigit, bestDiff := -1, len(pes)+1
	for j := 0; j < topo.Dim; j++ {
		zeros := 0
		for _, pe := range pes {
			if topo.Labels[pe].Bit(j) == 0 {
				zeros++
			}
		}
		ones := len(pes) - zeros
		if zeros == 0 || ones == 0 {
			continue
		}
		diff := zeros - ones
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff, bestDigit = diff, j
		}
	}
	if bestDigit < 0 {
		// All labels identical on the remaining digits cannot happen for
		// distinct labels; split arbitrarily as a safety net.
		mid := len(pes) / 2
		left = append(left, pes[:mid]...)
		right = append(right, pes[mid:]...)
		return left, right
	}
	for _, pe := range pes {
		if topo.Labels[pe].Bit(bestDigit) == 0 {
			left = append(left, pe)
		} else {
			right = append(right, pe)
		}
	}
	return left, right
}

// bisectProportional produces a 2-way split of sub with side 0 holding
// fracL of the weight. It reuses the partitioner's machinery for k=2
// with asymmetric targets; with a scratch-backed config the returned
// side aliases the partitioner scratch and is consumed before the next
// bisection.
func bisectProportional(sub *graph.Graph, pcfg partition.Config, fracL float64, seed int64) []int32 {
	res, err := partition.PartitionProportional(sub, pcfg, fracL, seed)
	if err != nil {
		// Degenerate (e.g. sub too small): put everything on side 0.
		side := make([]int32, sub.N())
		return side
	}
	return res
}
