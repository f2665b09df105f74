package core

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// sequentialHierarchies is the plain sequential form of Algorithm 1's
// main loop (lines 3-20): one trial per iteration, each accepted or
// rejected before the next starts, with permutations drawn as it goes.
// It is the reference runHierarchies must reproduce exactly under
// every Spawn pattern, including none.
func sequentialHierarchies(lab *Labeling, opt Options, rng *rand.Rand, res *Result, sc *Scratch) {
	ga := lab.Ga
	dimGa := lab.DimGa
	plusMask, minusMask := objectiveMasks(lab, opt)
	curCoco, curDiv := cocoAndDivOfLabels(ga, lab.Labels, plusMask, minusMask)
	bestCocoPlus := curCoco - curDiv
	bestCoco := curCoco
	bestCocoLabels := append([]bitvec.Label(nil), lab.Labels...)

	for h := 0; h < opt.NumHierarchies; h++ {
		pi := oraclePermutation(h, dimGa, opt, rng)
		t := tryHierarchy(ga, lab.Labels, dimGa, pi, plusMask, minusMask, opt.SwapRounds,
			curCoco, bestCocoPlus, sc)
		// Lines 17-19: keep only if Coco+ did not get worse.
		if t.cocoPlus <= bestCocoPlus {
			copy(lab.Labels, t.labels)
			bestCocoPlus = t.cocoPlus
			curCoco = t.coco
			res.HierarchiesKept++
			res.SwapsApplied += t.swaps
			res.SwapGain += t.swapGain
			res.Repairs += t.repairs
			if t.coco < bestCoco {
				bestCoco = t.coco
				copy(bestCocoLabels, t.labels)
			}
		}
	}
	// Return the accepted state with the best plain Coco.
	copy(lab.Labels, bestCocoLabels)
}

// oraclePermutation draws the h-th hierarchy permutation with the
// allocating bitvec constructors that pickPermutation replays in place.
func oraclePermutation(h, dimGa int, opt Options, rng *rand.Rand) bitvec.Permutation {
	if opt.FixedPermutations {
		if h%2 == 0 {
			return bitvec.Identity(dimGa)
		}
		return bitvec.Reverse(dimGa)
	}
	return bitvec.Random(rng, dimGa)
}

// oracleEnhance is Enhance with sequentialHierarchies as its loop.
func oracleEnhance(t *testing.T, ga *graph.Graph, topo *topology.Topology, assign []int32, opt Options) *Result {
	t.Helper()
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	lab, err := NewLabeling(ga, topo, assign, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Labeling: lab, CocoBefore: lab.Coco(), CocoPlusBefore: lab.CocoPlus()}
	if lab.DimGa >= 2 && ga.N() > 1 {
		sequentialHierarchies(lab, opt, rng, res, NewScratch())
	}
	res.CocoAfter = lab.Coco()
	res.CocoPlusAfter = lab.CocoPlus()
	if res.Assign, err = lab.Assignment(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWideEquivalence pins the one-loop contract: Enhance — with no
// Spawn hook, or with one that never, always or alternately grants
// helpers — is byte-identical to the sequential oracle: labels,
// mapping, objectives and every diagnostic counter.
func TestWideEquivalence(t *testing.T) {
	cases := []struct {
		name string
		n, m int
		spec string
		opt  Options
	}{
		{"rand256/grid4x4", 256, 800, "grid:4x4", Options{NumHierarchies: 24, Seed: 7}},
		{"rand512/hypercube4", 512, 1600, "hypercube:4", Options{NumHierarchies: 24, Seed: 7}},
		{"rand320/torus4x4", 320, 1000, "torus:4x4", Options{NumHierarchies: 16, Seed: 7}},
		{"rand256/grid4x4-ablated", 256, 800, "grid:4x4",
			Options{NumHierarchies: 12, Seed: 8, DisableDiv: true, FixedPermutations: true, SwapRounds: 2}},
		// dimGa 63: 61 contractions reuse the Scratch's two coarse-graph
		// buffers in every trial.
		{"rand2048/grid32x32", 2048, 4096, "grid:32x32", Options{NumHierarchies: 4, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := mustTopo(t, tc.spec)
			ga := randomGraph(tc.n, tc.m, 11)
			assign := balancedAssign(tc.n, topo.P(), 13)
			want := oracleEnhance(t, ga, topo, assign, tc.opt)
			if want.HierarchiesKept == 0 || want.SwapsApplied == 0 {
				t.Fatalf("oracle kept %d hierarchies with %d swaps; the case exercises nothing",
					want.HierarchiesKept, want.SwapsApplied)
			}

			var wg sync.WaitGroup
			var calls atomic.Int64
			spawners := map[string]func(func()) bool{
				"nil":   nil,
				"never": func(fn func()) bool { return false },
				"always": func(fn func()) bool {
					wg.Add(1)
					go func() { defer wg.Done(); fn() }()
					return true
				},
				"alternate": func(fn func()) bool {
					if calls.Add(1)%2 == 0 {
						return false
					}
					wg.Add(1)
					go func() { defer wg.Done(); fn() }()
					return true
				},
			}
			for sname, spawn := range spawners {
				opt := tc.opt
				opt.Spawn = spawn
				got, err := Enhance(ga, topo, assign, opt)
				wg.Wait()
				if err != nil {
					t.Fatalf("%s: %v", sname, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: differs from the sequential oracle: coco %d/%d coco+ %d/%d "+
						"kept %d/%d swaps %d/%d gain %d/%d repairs %d/%d", sname,
						want.CocoAfter, got.CocoAfter, want.CocoPlusAfter, got.CocoPlusAfter,
						want.HierarchiesKept, got.HierarchiesKept, want.SwapsApplied, got.SwapsApplied,
						want.SwapGain, got.SwapGain, want.Repairs, got.Repairs)
				}
			}
		})
	}
}

func mustTopo(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	s, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}
