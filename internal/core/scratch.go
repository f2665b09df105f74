package core

import (
	"sync"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// Scratch owns every reusable buffer of the TIMER hot path: the
// permuted-label and candidate buffers, the hierarchy levels (label,
// parent and coarse-graph storage per level), the suffix-trie backing
// arrays, the sign table, the open-addressed label indexes and the
// compiled permutation shift tables, plus the tables of the hierarchy
// loop itself. One hierarchy trial — the unit the main loop runs
// NumHierarchies times per job — performs zero heap allocations once
// its Scratch is warm, and so does the whole loop when it runs without
// Spawn; everything is reset in place between trials.
//
// Engine workers keep one Scratch per worker goroutine and pass it via
// Options.Scratch; library callers can ignore it (Enhance then borrows
// one from a package pool). A Scratch may be reused across Enhance
// calls but must never be used by two goroutines at once.
type Scratch struct {
	levels []hlevel // hierarchy storage, finest first; levels[:nlev] in use
	nlev   int

	contractor graph.Contractor
	byLabel    bitvec.LabelIndex // swap sibling index / contraction prefix index
	repairIx   bitvec.LabelIndex // duplicate-owner index of repairDuplicates
	trie       suffixTrie

	fwd, inv bitvec.ShiftTable // compiled π and π⁻¹ of the current trial

	signs     []int8         // Coco+ sign per permuted digit
	perm      []bitvec.Label // π(base), untouched by swaps (trie source)
	assembled []bitvec.Label // assemble() output, still in permuted space
	cand      []bitvec.Label // candidate labels in original digit order
	path      []int32        // trie walk of one vertex during assemble

	// Tables of runHierarchies.
	pis    []uint8        // permutation table, one row of dimGa digits per hierarchy (see pi)
	trials []trial        // one round's trials; trials[0] is computed with this Scratch
	best   []bitvec.Label // accepted state with the lowest plain Coco
	wg     sync.WaitGroup // the round's speculative helpers
}

// NewScratch returns an empty Scratch. Buffers are grown on first use
// and retained at their high-water mark afterwards.
func NewScratch() *Scratch {
	return &Scratch{
		signs: make([]int8, 0, bitvec.MaxDim),
		path:  make([]int32, 0, bitvec.MaxDim),
	}
}

// scratchPool hands out Scratches to Enhance calls that did not bring
// their own (Options.Scratch == nil) and to the speculative helpers of
// a wide run.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// pi returns hierarchy h's permutation from the loop's table.
func (sc *Scratch) pi(h, dimGa int) bitvec.Permutation { return sc.pis[h*dimGa : (h+1)*dimGa] }

// level returns &sc.levels[k], extending the level storage as needed.
func (sc *Scratch) level(k int) *hlevel {
	for len(sc.levels) <= k {
		sc.levels = append(sc.levels, hlevel{})
	}
	return &sc.levels[k]
}
