package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// DefaultNumHierarchies is the paper's NH default (Section 7). Every
// layer that defaults the hierarchy count — core.Options,
// engine.JobSpec, the bench harness's ns/op arithmetic — shares this
// constant so they cannot drift apart.
const DefaultNumHierarchies = 50

// Options configures a TIMER run (procedure TIMER of Algorithm 1).
type Options struct {
	// NumHierarchies is NH, the number of random label-permutation
	// hierarchies to try. The paper uses 50 and notes that 10 already
	// captures most of the improvement. Default 50.
	NumHierarchies int
	// Seed drives the extension shuffle and the permutations.
	Seed int64

	// DisableDiv ablates the diversity term of Section 5: the objective
	// reverts from Coco+ = Coco − Div to plain Coco, so swaps on
	// extension digits never fire. Exposed for the ablation benchmarks.
	DisableDiv bool
	// FixedPermutations ablates the multi-hierarchy diversity of
	// Section 6: instead of NH random permutations, TIMER alternates
	// between the identity and the digit-reversing permutation (the two
	// opposite hierarchies of Figure 2).
	FixedPermutations bool
	// Deprecated: Workers does nothing. It used to select a batched
	// hierarchy loop whose search trajectory differed from the
	// sequential one; Spawn parallelizes the loop without changing the
	// result.
	Workers int
	// SwapRounds repeats the sibling-swap pass on each hierarchy level
	// until it converges or the bound is hit (default 1, the paper's
	// single pass). The paper's conclusion suggests replacing its
	// "standard and simple" local search with something stronger; extra
	// rounds are the cheapest such strengthening.
	SwapRounds int

	// Spawn, when non-nil, enables wide execution of the hierarchy
	// loop: upcoming trials are evaluated speculatively on other
	// goroutines while the loop's exact acceptance order is replayed
	// afterwards, so the result — labels and every counter — is
	// byte-identical to the Spawn == nil run. Spawn must either run the
	// function (on any goroutine, returning true immediately) or
	// decline by returning false; it must be safe for concurrent calls.
	// The engine's wide mode supplies a pool-occupancy-gated Spawn.
	// See runHierarchies.
	Spawn func(func()) bool

	// Scratch, when non-nil, supplies the reusable hot-path buffers of
	// this run; engine workers keep one per worker goroutine so
	// back-to-back jobs share warm arenas. When nil, Enhance borrows a
	// Scratch from a package pool. The same Scratch must never be used
	// by two Enhance calls concurrently.
	Scratch *Scratch
}

func (o Options) withDefaults() Options {
	if o.NumHierarchies <= 0 {
		o.NumHierarchies = DefaultNumHierarchies
	}
	if o.SwapRounds <= 0 {
		o.SwapRounds = 1
	}
	return o
}

// Result reports a TIMER run.
type Result struct {
	// Labeling is the final labeling (Labels encode the enhanced µ).
	Labeling *Labeling
	// Assign is the enhanced mapping extracted from the labels.
	Assign []int32
	// CocoBefore/After are the paper's main objective before and after.
	CocoBefore, CocoAfter int64
	// CocoPlusBefore/After are the extended objective (Eq. (14)).
	CocoPlusBefore, CocoPlusAfter int64
	// HierarchiesKept counts hierarchies whose labeling was accepted.
	HierarchiesKept int
	// SwapsApplied counts label swaps across all kept hierarchies.
	SwapsApplied int
	// SwapGain is the summed exact Coco+ delta of those swaps, as
	// maintained incrementally by the swap passes (always ≤ 0). It
	// measures how much of the enhancement the local search itself
	// contributed, versus the hierarchy reassembly.
	SwapGain int64
	// Repairs counts assemble() bijectivity repairs (diagnostic; the
	// counting trie makes assemble bijective, so this stays 0 unless the
	// safety net is exercised by a future change).
	Repairs int
}

// Enhance runs TIMER on an initial mapping assign of ga onto topo and
// returns the enhanced mapping. The balance of the input mapping is
// preserved exactly: TIMER only permutes labels within the fixed label
// set, so block sizes never change (paper Section 4).
func Enhance(ga *graph.Graph, topo *topology.Topology, assign []int32, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	lab, err := NewLabeling(ga, topo, assign, rng)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Labeling:       lab,
		CocoBefore:     lab.Coco(),
		CocoPlusBefore: lab.CocoPlus(),
	}
	if lab.DimGa >= 2 && ga.N() > 1 {
		sc := opt.Scratch
		if sc == nil {
			sc = getScratch()
			defer putScratch(sc)
		}
		runHierarchies(lab, opt, rng, res, sc)
	}
	res.CocoAfter = lab.Coco()
	res.CocoPlusAfter = lab.CocoPlus()
	res.Assign, err = lab.Assignment()
	if err != nil {
		return nil, fmt.Errorf("core: extracting enhanced mapping: %w", err)
	}
	return res, nil
}

// objectiveMasks returns the +1 and −1 digit masks of the acceptance
// objective: Coco+ normally, plain Coco under the DisableDiv ablation.
func objectiveMasks(lab *Labeling, opt Options) (plus, minus uint64) {
	plus = lab.LpMask()
	if !opt.DisableDiv {
		minus = lab.ExtMask()
	}
	return plus, minus
}

// pickPermutation draws the h-th hierarchy permutation into p, whose
// length is the label dimension. The random case consumes rng exactly
// like bitvec.Random.
func pickPermutation(p bitvec.Permutation, h int, opt Options, rng *rand.Rand) {
	for i := range p {
		p[i] = uint8(i)
	}
	switch {
	case !opt.FixedPermutations:
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	case h%2 == 1:
		slices.Reverse(p) // the digit-reversing permutation
	}
}

// trial is the outcome of building and assembling one hierarchy.
type trial struct {
	// labels aliases the Scratch's candidate buffer and is only valid
	// until that Scratch starts its next hierarchy; acceptance copies it
	// out immediately.
	labels []bitvec.Label
	// coco and cocoPlus are scored in one shared edge walk; the plain
	// Coco rides along so acceptance needs no second O(m) pass.
	coco, cocoPlus int64
	swaps          int
	// swapGain is the summed incremental Coco+ delta of the applied
	// sibling swaps across all hierarchy levels (always ≤ 0).
	swapGain int64
	repairs  int
}

// tryHierarchy executes one iteration of Algorithm 1's outer loop (lines
// 5-16) from the given base labels: permute, build the swap/contract
// hierarchy, assemble, un-permute. It does not decide acceptance.
// baseCoco and baseCocoPlus are the objectives of base: a hierarchy on
// which no swap fired reproduces base exactly (assemble then walks every
// vertex's own unchanged label through the trie), so its assembly,
// un-permutation and O(m) rescoring are skipped wholesale.
func tryHierarchy(ga *graph.Graph, base []bitvec.Label, dimGa int,
	pi bitvec.Permutation, plusMask, minusMask uint64, swapRounds int,
	baseCoco, baseCocoPlus int64, sc *Scratch) trial {
	n := len(base)
	sc.fwd.CompileInto(pi)
	sc.perm = graph.Resize(sc.perm, n)
	for v, l := range base {
		sc.perm[v] = sc.fwd.Apply(l)
	}
	// A zero-value Scratch (not from NewScratch) grows these here.
	if cap(sc.signs) < dimGa {
		sc.signs = make([]int8, 0, bitvec.MaxDim)
	}
	if cap(sc.path) < dimGa {
		sc.path = make([]int32, 0, bitvec.MaxDim)
	}
	sc.signs = sc.signs[:dimGa]
	for j := 0; j < dimGa; j++ {
		bit := uint64(1) << uint(pi[j])
		switch {
		case bit&plusMask != 0:
			sc.signs[j] = 1
		case bit&minusMask != 0:
			sc.signs[j] = -1
		default:
			sc.signs[j] = 0 // ablated digit: swaps there can never gain
		}
	}

	sc.buildHierarchy(ga, dimGa, sc.signs, swapRounds)
	swaps := 0
	var gain int64
	for k := 0; k < sc.nlev; k++ {
		swaps += sc.levels[k].swaps
		gain += sc.levels[k].gain
	}

	sc.cand = graph.Resize(sc.cand, n)
	if swaps == 0 {
		copy(sc.cand, base)
		return trial{labels: sc.cand, coco: baseCoco, cocoPlus: baseCocoPlus}
	}

	sc.trie.build(sc.perm, dimGa)
	sc.assembled = graph.Resize(sc.assembled, n)
	assemble(sc.levels[:sc.nlev], dimGa, &sc.trie, sc.assembled, sc.path)

	sc.inv.CompileInverseInto(pi)
	for v, l := range sc.assembled {
		sc.cand[v] = sc.inv.Apply(l)
	}
	repairs := repairDuplicates(ga, sc.cand, base, plusMask, minusMask, &sc.repairIx)
	coco, div := cocoAndDivOfLabels(ga, sc.cand, plusMask, minusMask)
	return trial{
		labels:   sc.cand,
		coco:     coco,
		cocoPlus: coco - div,
		swaps:    swaps,
		swapGain: gain,
		repairs:  repairs,
	}
}

// runHierarchies is the main loop of Algorithm 1 (lines 3-20).
//
// One deliberate strengthening over the paper's pseudocode: hierarchies
// are accepted on the Coco+ criterion exactly as in lines 17-19, but the
// labeling finally returned is the accepted state with the lowest plain
// Coco (the paper's actual quality measure, Eq. (3)). Coco+ = Coco − Div
// can improve while Coco degrades slightly; since TIMER is presented as
// an enhancer whose output is measured in Coco, tracking the best
// accepted Coco state guarantees the enhancement property without
// changing the search trajectory.
//
// The loop runs in rounds so that opt.Spawn can speculate upcoming
// trials without changing the result. The loop chains state — each
// trial starts from the current accepted labeling and the current
// Coco+ threshold — so naive fan-out would change the search. But most
// trials do NOT change that state: a rejected trial mutates nothing,
// and an accepted zero-swap trial reproduces the base labeling exactly
// and leaves the threshold where it was (its Coco+ ties the threshold,
// and ties are accepted). Only a trial that is accepted with swaps
// applied ("a mutation") advances the base labeling.
//
// So each round evaluates trials h, h+1, … concurrently from the
// current state: trial h on the caller, the rest on goroutines granted
// by opt.Spawn, each with its own pooled Scratch. After the round
// joins, the trials are scanned in h-order applying the acceptance rule
// verbatim; the scan stops consuming at the first mutation, whose
// successors were speculated from a stale base and are discarded
// (recomputed next round from the updated state). Every consumed trial
// therefore sees exactly the inputs a one-trial round would have given
// it, making labels and counters byte-identical at any width —
// speculation only ever costs wasted helper work, never a different
// answer. Wall-clock approaches NumHierarchies/(mutations+1) trial
// times; with a typical handful of mutations concentrated in the early
// trials, that is near-linear in the granted width.
//
// With Spawn == nil every round is one trial wide and no helper closure
// is ever built; the permutation table, trial table, best-Coco labels
// and the round's WaitGroup all live in sc, so a run on a warm Scratch
// performs no heap allocation.
func runHierarchies(lab *Labeling, opt Options, rng *rand.Rand, res *Result, sc *Scratch) {
	ga, dimGa, nh, rounds := lab.Ga, lab.DimGa, opt.NumHierarchies, opt.SwapRounds
	plusMask, minusMask := objectiveMasks(lab, opt)
	curCoco, curDiv := cocoAndDivOfLabels(ga, lab.Labels, plusMask, minusMask)
	bestCocoPlus := curCoco - curDiv
	bestCoco := curCoco
	sc.best = append(sc.best[:0], lab.Labels...)

	// The permutations are all drawn up front: the shared rng is consumed
	// nowhere else in the loop, one draw per trial in h-order, so
	// pre-drawing consumes the identical stream.
	sc.pis = graph.Resize(sc.pis, nh*dimGa)
	for h := 0; h < nh; h++ {
		pickPermutation(sc.pi(h, dimGa), h, opt, rng)
	}
	sc.trials = graph.Resize(sc.trials, nh)
	trials := sc.trials
	// helpers[i-1] computes trials[i] of a round; grown to the widest
	// round and returned to the pool at the end.
	var helpers []*Scratch
	// Should the caller's own trial panic, no helper may outlive the run:
	// they write into sc.trials, which the next run on sc reuses.
	defer sc.wg.Wait()

	for h := 0; h < nh; {
		// Launch as many speculative helpers as Spawn grants, then run
		// trial h on the caller. Greedy width is wall-clock optimal: a
		// round ends at the next mutation wherever it falls, and the
		// grant gate (the engine's pool occupancy) is what bounds wasted
		// helper work under load.
		width := 1
		for opt.Spawn != nil && width < nh-h {
			if len(helpers) < width {
				helpers = append(helpers, getScratch())
			}
			pi, slot, out := sc.pi(h+width, dimGa), helpers[width-1], &trials[width]
			base, thr := curCoco, bestCocoPlus
			sc.wg.Add(1)
			if !opt.Spawn(func() {
				defer sc.wg.Done()
				*out = tryHierarchy(ga, lab.Labels, dimGa, pi, plusMask, minusMask, rounds, base, thr, slot)
			}) {
				sc.wg.Done() // the task never ran; undo its Add
				break
			}
			width++
		}
		trials[0] = tryHierarchy(ga, lab.Labels, dimGa, sc.pi(h, dimGa), plusMask, minusMask, rounds,
			curCoco, bestCocoPlus, sc)
		sc.wg.Wait()

		// Replay the sequential acceptance over the round in h-order.
		consumed := width
		for j := 0; j < width; j++ {
			t := &trials[j]
			// Lines 17-19: keep only if Coco+ did not get worse.
			if t.cocoPlus > bestCocoPlus {
				continue // rejected: state untouched, speculation holds
			}
			copy(lab.Labels, t.labels)
			bestCocoPlus = t.cocoPlus
			curCoco = t.coco
			res.HierarchiesKept++
			res.SwapsApplied += t.swaps
			res.SwapGain += t.swapGain
			res.Repairs += t.repairs
			if t.coco < bestCoco {
				bestCoco = t.coco
				copy(sc.best, t.labels)
			}
			if t.swaps > 0 {
				// A mutation: the base labeling changed, so the rest of
				// the round speculated from a stale base. Consume up to
				// here; the successors rerun next round.
				consumed = j + 1
				break
			}
		}
		h += consumed
	}
	// Return the accepted state with the best plain Coco (see doc above).
	copy(lab.Labels, sc.best)
	for _, s := range helpers {
		putScratch(s)
	}
	// The helpers' trials alias their candidate buffers; dropping them
	// lets the pool reclaim those Scratches.
	clear(trials)
}
