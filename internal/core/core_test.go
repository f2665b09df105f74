package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
)

func randomGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), int64(1+rng.Intn(5)))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// balancedAssign maps vertices round-robin onto PEs (perfectly balanced).
func balancedAssign(n, p int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int32, n)
	for v := range assign {
		assign[v] = int32(v % p)
	}
	rng.Shuffle(n, func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	return assign
}

func TestNewLabelingBasics(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	ga := randomGraph(16, 20, 1)
	assign := balancedAssign(16, 4, 2)
	rng := rand.New(rand.NewSource(3))
	lab, err := NewLabeling(ga, topo, assign, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lab.DimGp != 2 {
		t.Errorf("DimGp = %d, want 2", lab.DimGp)
	}
	if lab.Ext != 2 { // blocks of 4 need 2 extension digits
		t.Errorf("Ext = %d, want 2", lab.Ext)
	}
	if lab.DimGa != 4 {
		t.Errorf("DimGa = %d, want 4", lab.DimGa)
	}
	if err := lab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Assignment must round-trip.
	got, err := lab.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	for v := range assign {
		if got[v] != assign[v] {
			t.Fatalf("assignment changed at %d: %d != %d", v, got[v], assign[v])
		}
	}
}

func TestNewLabelingExtWidth(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	cases := []struct {
		sizes []int // block sizes (sum = n)
		want  int
	}{
		{[]int{1, 1, 1, 1}, 0},
		{[]int{2, 1, 1, 1}, 1},
		{[]int{4, 4, 4, 4}, 2},
		{[]int{5, 1, 1, 1}, 3},
		{[]int{8, 8, 8, 8}, 3},
		{[]int{9, 1, 1, 1}, 4},
	}
	for _, c := range cases {
		var assign []int32
		for pe, s := range c.sizes {
			for i := 0; i < s; i++ {
				assign = append(assign, int32(pe))
			}
		}
		ga := graph.Path(len(assign))
		lab, err := NewLabeling(ga, topo, assign, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if lab.Ext != c.want {
			t.Errorf("sizes %v: Ext = %d, want %d", c.sizes, lab.Ext, c.want)
		}
	}
}

func TestNewLabelingRejectsBadAssign(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	ga := graph.Path(4)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewLabeling(ga, topo, []int32{0, 1}, rng); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := NewLabeling(ga, topo, []int32{0, 1, 2, 9}, rng); err == nil {
		t.Error("out-of-range PE accepted")
	}
}

func TestCocoMatchesMappingCoco(t *testing.T) {
	topo, _ := topology.Grid(4, 4)
	ga := randomGraph(64, 120, 5)
	assign := balancedAssign(64, 16, 6)
	lab, err := NewLabeling(ga, topo, assign, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lab.Coco(), mapping.Coco(ga, assign, topo); got != want {
		t.Errorf("label Coco = %d, mapping Coco = %d", got, want)
	}
}

// uniqueRandomLabels draws n distinct labels of the given width.
func uniqueRandomLabels(rng *rand.Rand, n, dim int) []bitvec.Label {
	seen := make(map[bitvec.Label]bool, n)
	out := make([]bitvec.Label, 0, n)
	for len(out) < n {
		l := bitvec.Label(rng.Uint64()) & bitvec.Label(bitvec.Mask(0, dim))
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// TestSwapGainMatchesBruteForce verifies the O(deg) sibling-swap gain
// formula against full recomputation of Coco+ over all label digits,
// and checks the two objective terms separately: a swap on an Lp digit
// moves plain Coco by exactly the delta and leaves Div alone, while a
// swap on an extension digit leaves Coco alone and moves Div by −delta.
func TestSwapGainMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lpChecked, extChecked := 0, 0
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(24)
		dim := 3 + rng.Intn(8)
		if n > 1<<dim {
			n = 1 << dim
		}
		g := randomGraph(n, 2*n, rng.Int63())
		labels := uniqueRandomLabels(rng, n, dim)
		split := rng.Intn(dim + 1)
		lpMask, extMask := bitvec.Mask(split, dim), bitvec.Mask(0, split)
		// Sign of digit 0: +1 if it belongs to the lp region.
		sign := -1
		if split == 0 {
			sign = 1
		}
		// Find any sibling pair.
		byLabel := make(map[bitvec.Label]int, n)
		for v, l := range labels {
			byLabel[l] = v
		}
		for u := 0; u < n; u++ {
			if labels[u]&1 != 0 {
				continue
			}
			v, ok := byLabel[labels[u]^1]
			if !ok {
				continue
			}
			before := cocoPlusOfLabels(g, labels, lpMask, extMask)
			cocoBefore, divBefore := cocoAndDivOfLabels(g, labels, lpMask, extMask)
			labels[u], labels[v] = labels[v], labels[u]
			after := cocoPlusOfLabels(g, labels, lpMask, extMask)
			cocoAfter, divAfter := cocoAndDivOfLabels(g, labels, lpMask, extMask)
			labels[u], labels[v] = labels[v], labels[u] // restore
			got := siblingSwapDelta(g, labels, u, v, sign)
			if want := after - before; got != want {
				t.Fatalf("trial %d: swap delta = %d, brute force = %d (u=%d v=%d sign=%d)",
					trial, got, want, u, v, sign)
			}
			dCoco, dDiv := cocoAfter-cocoBefore, divAfter-divBefore
			if sign == 1 {
				if dCoco != got || dDiv != 0 {
					t.Fatalf("trial %d: Lp-digit swap moved Coco by %d and Div by %d, want %d and 0",
						trial, dCoco, dDiv, got)
				}
				lpChecked++
			} else {
				if dCoco != 0 || dDiv != -got {
					t.Fatalf("trial %d: extension-digit swap moved Coco by %d and Div by %d, want 0 and %d",
						trial, dCoco, dDiv, -got)
				}
				extChecked++
			}
		}
	}
	if lpChecked == 0 || extChecked == 0 {
		t.Fatalf("checked %d Lp-digit and %d extension-digit swaps, want both > 0", lpChecked, extChecked)
	}
}

// TestSwapPassNeverWorsens: a swap pass must never increase Coco+ when
// evaluated with the digit-0 sign it was given.
func TestSwapPassNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 6 + rng.Intn(40)
		dim := 4 + rng.Intn(6)
		if n > 1<<dim {
			n = 1 << dim
		}
		g := randomGraph(n, 3*n, rng.Int63())
		labels := uniqueRandomLabels(rng, n, dim)
		split := rng.Intn(dim + 1)
		lpMask, extMask := bitvec.Mask(split, dim), bitvec.Mask(0, split)
		sign := -1
		if split == 0 {
			sign = 1
		}
		before := cocoPlusOfLabels(g, labels, lpMask, extMask)
		byLabel := bitvec.NewLabelIndex(n)
		for v, l := range labels {
			byLabel.Put(l, int32(v))
		}
		swaps, gain := swapPass(g, labels, sign, byLabel)
		after := cocoPlusOfLabels(g, labels, lpMask, extMask)
		if after > before {
			t.Fatalf("trial %d: swap pass worsened Coco+ %d -> %d", trial, before, after)
		}
		// The incrementally maintained delta must match the re-scored
		// objective exactly.
		if after-before != gain {
			t.Fatalf("trial %d: incremental gain %d, recomputed %d (%d swaps)",
				trial, gain, after-before, swaps)
		}
		// byLabel must stay consistent.
		for v, l := range labels {
			if got, ok := byLabel.Get(l); !ok || got != int32(v) {
				t.Fatal("byLabel out of sync after swaps")
			}
		}
	}
}

func TestContract(t *testing.T) {
	// Four vertices with labels 00,01,10,11 contract into two vertices
	// (0 and 1) with aggregated edges.
	g := graph.NewBuilder(4).
		AddEdge(0, 1, 5). // 00-01: intra pair 0
		AddEdge(0, 2, 3). // 00-10: inter
		AddEdge(1, 3, 2). // 01-11: inter
		AddEdge(2, 3, 7). // 10-11: intra pair 1
		Build()
	lv := &hlevel{labels: []bitvec.Label{0b00, 0b01, 0b10, 0b11}}
	up := &hlevel{}
	var gc graph.Graph
	NewScratch().contract(g, lv, up, &gc)
	if gc.N() != 2 {
		t.Fatalf("coarse N = %d, want 2", gc.N())
	}
	if gc.EdgeWeight(0, 1) != 5 { // 3 + 2
		t.Errorf("coarse edge weight = %d, want 5", gc.EdgeWeight(0, 1))
	}
	if up.labels[0] != 0 || up.labels[1] != 1 {
		t.Errorf("coarse labels = %v, want [0 1]", up.labels)
	}
	if lv.parent[0] != lv.parent[1] || lv.parent[2] != lv.parent[3] || lv.parent[0] == lv.parent[2] {
		t.Errorf("parent = %v: pairs must merge", lv.parent)
	}
}

func TestSuffixTrie(t *testing.T) {
	labels := []bitvec.Label{0b000, 0b011, 0b101}
	var trie suffixTrie
	trie.build(labels, 3)
	// Suffix digit 0: 0 and 1 both present.
	if trie.step(0, 0) < 0 || trie.step(0, 1) < 0 {
		t.Fatal("both digit-0 suffixes should exist")
	}
	// Suffix "11" (digits 0,1 = 1,1) exists only via 011.
	n1 := trie.step(0, 1)
	if trie.step(n1, 1) < 0 {
		t.Error("suffix 11 should exist")
	}
	if next := trie.step(n1, 0); next < 0 {
		t.Error("suffix 01 should exist (from 101)")
	} else if trie.step(next, 1) < 0 {
		t.Error("suffix 101 should exist")
	}
	// Suffix 111 must not exist.
	n11 := trie.step(n1, 1)
	if trie.step(n11, 1) >= 0 {
		t.Error("suffix 111 should not exist")
	}
}

func TestSuffixTrieClaiming(t *testing.T) {
	// After claiming the only label with suffix "1", that branch closes.
	labels := []bitvec.Label{0b00, 0b10, 0b01}
	var trie suffixTrie
	trie.build(labels, 2)
	n1 := trie.step(0, 1) // suffix 1: only 01
	n01 := trie.step(n1, 0)
	if n01 < 0 {
		t.Fatal("label 01 should be reachable")
	}
	trie.claim([]int32{n1, n01})
	if trie.step(0, 1) >= 0 {
		t.Error("suffix 1 should be exhausted after claiming 01")
	}
	// Suffix 0 still has two labels.
	n0 := trie.step(0, 0)
	if n0 < 0 {
		t.Fatal("suffix 0 should remain")
	}
	if trie.step(n0, 0) < 0 || trie.step(n0, 1) < 0 {
		t.Error("both labels 00 and 10 should remain claimable")
	}
}

func TestEnhanceNeverWorsensCocoPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		topo, _ := topology.Grid(4, 4)
		n := 64 + rng.Intn(100)
		ga := randomGraph(n, 3*n, rng.Int63())
		assign := balancedAssign(n, 16, rng.Int63())
		res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 8, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		if res.CocoPlusAfter > res.CocoPlusBefore {
			t.Fatalf("Coco+ worsened: %d -> %d", res.CocoPlusBefore, res.CocoPlusAfter)
		}
		if err := res.Labeling.Validate(); err != nil {
			t.Fatalf("final labeling invalid: %v", err)
		}
	}
}

func TestEnhancePreservesBalanceExactly(t *testing.T) {
	topo, _ := topology.Grid(4, 4)
	ga := randomGraph(200, 600, 19)
	assign := balancedAssign(200, 16, 20)
	before := mapping.BlockSizes(ga, assign, 16)
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	after := mapping.BlockSizes(ga, res.Assign, 16)
	for pe := range before {
		if before[pe] != after[pe] {
			t.Fatalf("block size of PE %d changed: %d -> %d", pe, before[pe], after[pe])
		}
	}
}

func TestEnhanceImprovesBadMapping(t *testing.T) {
	// Application graph = the topology graph itself. The identity is
	// optimal; a random balanced mapping is bad. TIMER must close a good
	// part of the gap.
	topo, _ := topology.Grid(4, 4)
	// Blow the grid up: each PE gets a 4-clique, neighboring cliques
	// connected, giving strong locality structure.
	n := 16 * 4
	b := graph.NewBuilder(n)
	for pe := 0; pe < 16; pe++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(pe*4+i, pe*4+j, 10)
			}
		}
	}
	tg := topo.G
	for v := 0; v < tg.N(); v++ {
		nbr, _ := tg.Neighbors(v)
		for _, u := range nbr {
			if int(u) > v {
				b.AddEdge(v*4, int(u)*4, 2)
			}
		}
	}
	ga := b.Build()
	assign := balancedAssign(n, 16, 23)
	before := mapping.Coco(ga, assign, topo)
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 30, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	after := mapping.Coco(ga, res.Assign, topo)
	if after >= before {
		t.Fatalf("TIMER did not improve Coco: %d -> %d", before, after)
	}
	if float64(after) > 0.9*float64(before) {
		t.Errorf("TIMER improvement too small: %d -> %d (want >10%%)", before, after)
	}
	if res.HierarchiesKept == 0 {
		t.Error("no hierarchy kept despite improvement")
	}
}

func TestEnhanceOnOptimalMappingStaysOptimal(t *testing.T) {
	// Ga = Gp, µ = identity: Coco = Σ edge weights (all distance 1).
	// TIMER cannot improve and must not worsen.
	topo, _ := topology.Grid(3, 3)
	ga := topo.G
	assign := make([]int32, ga.N())
	for v := range assign {
		assign[v] = int32(v)
	}
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	want := ga.TotalEdgeWeight()
	if res.CocoBefore != want {
		t.Fatalf("CocoBefore = %d, want %d", res.CocoBefore, want)
	}
	if res.CocoAfter > res.CocoBefore {
		t.Errorf("TIMER worsened an optimal mapping: %d -> %d", res.CocoBefore, res.CocoAfter)
	}
}

func TestEnhanceDeterministic(t *testing.T) {
	topo, _ := topology.Hypercube(3)
	ga := randomGraph(64, 200, 37)
	assign := balancedAssign(64, 8, 38)
	a, err := Enhance(ga, topo, assign, Options{NumHierarchies: 6, Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enhance(ga, topo, assign, Options{NumHierarchies: 6, Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	if a.CocoAfter != b.CocoAfter {
		t.Errorf("same seed, different Coco: %d vs %d", a.CocoAfter, b.CocoAfter)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestEnhanceSingletonBlocks(t *testing.T) {
	// One vertex per PE: Ext = 0, Coco+ = Coco, TIMER degenerates to
	// pure lp-label swapping (a QAP local search) and must stay valid.
	topo, _ := topology.Grid(2, 4)
	ga := randomGraph(8, 20, 41)
	assign := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 12, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeling.Ext != 0 {
		t.Fatalf("Ext = %d, want 0", res.Labeling.Ext)
	}
	if res.CocoAfter > res.CocoBefore {
		t.Errorf("Coco worsened: %d -> %d", res.CocoBefore, res.CocoAfter)
	}
	if err := mapping.Validate(ga, res.Assign, topo, 0.0); err != nil {
		t.Fatal(err)
	}
}

func TestEnhanceTinyGraphs(t *testing.T) {
	topo, _ := topology.Grid(2, 1) // 2 PEs, dim 1
	ga := graph.Path(2)
	res, err := Enhance(ga, topo, []int32{0, 1}, Options{NumHierarchies: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CocoAfter != 1 {
		t.Errorf("path-2 on 2 PEs: Coco = %d, want 1", res.CocoAfter)
	}
	// Single vertex.
	one := graph.Path(1)
	if _, err := Enhance(one, topo, []int32{0}, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRepairDuplicates(t *testing.T) {
	g := graph.Path(4)
	all := []bitvec.Label{0, 1, 2, 3}
	labels := []bitvec.Label{0, 1, 1, 2} // 1 duplicated, 3 unused
	n := repairDuplicates(g, labels, all, bitvec.Mask(1, 2), bitvec.Mask(0, 1), bitvec.NewLabelIndex(len(labels)))
	if n != 1 {
		t.Fatalf("repairs = %d, want 1", n)
	}
	seen := map[bitvec.Label]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatalf("labels still duplicated: %v", labels)
		}
		seen[l] = true
	}
	if !seen[3] {
		t.Error("unused label 3 was not assigned")
	}
}

func TestEnhanceNeverNeedsRepairs(t *testing.T) {
	// The counting trie makes assemble a bijection by construction, so
	// the repair safety net must never fire.
	topo, _ := topology.Grid(4, 4)
	ga := randomGraph(300, 900, 47)
	assign := balancedAssign(300, 16, 48)
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 20, Seed: 49})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repairs != 0 {
		t.Errorf("repairs = %d, want 0 (assemble must be bijective)", res.Repairs)
	}
}

// TestEnhancePreservesLabelSet checks the paper's central invariant
// (Section 4): "the set L := l(Va) of labels will remain the same".
// Everything else — balance preservation, lp-part validity — follows
// from it.
func TestEnhancePreservesLabelSet(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 6; trial++ {
		topo, _ := topology.Torus(4, 4)
		n := 64 + rng.Intn(80)
		ga := randomGraph(n, 3*n, rng.Int63())
		assign := balancedAssign(n, 16, rng.Int63())
		lab, err := NewLabeling(ga, topo, assign, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			t.Fatal(err)
		}
		initial := make(map[bitvec.Label]bool, n)
		for _, l := range lab.Labels {
			initial[l] = true
		}
		res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 8, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Labeling.Labels) != n {
			t.Fatal("label count changed")
		}
		// The final label set must be a permutation of SOME valid initial
		// label set; since NewLabeling's extension numbering is seeded
		// separately inside Enhance, compare structure instead: every
		// final label's lp part must be a PE label, labels unique, and
		// the per-PE multiset sizes unchanged.
		if err := res.Labeling.Validate(); err != nil {
			t.Fatal(err)
		}
		_ = initial
		sizesA := mapping.BlockSizes(ga, assign, 16)
		sizesB := mapping.BlockSizes(ga, res.Assign, 16)
		for pe := range sizesA {
			if sizesA[pe] != sizesB[pe] {
				t.Fatalf("trial %d: block %d size changed %d -> %d", trial, pe, sizesA[pe], sizesB[pe])
			}
		}
	}
}

// TestTryHierarchyPreservesLabelSetExactly drives the inner loop
// directly, where the exact set-preservation claim is checkable.
func TestTryHierarchyPreservesLabelSetExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(60)
		dim := 4 + rng.Intn(8)
		if n > 1<<dim {
			n = 1 << dim
		}
		g := randomGraph(n, 2*n, rng.Int63())
		labels := uniqueRandomLabels(rng, n, dim)
		split := rng.Intn(dim + 1)
		plus, minus := bitvec.Mask(split, dim), bitvec.Mask(0, split)
		pi := bitvec.Random(rng, dim)
		coco, div := cocoAndDivOfLabels(g, labels, plus, minus)
		tr := tryHierarchy(g, labels, dim, pi, plus, minus, 1, coco, coco-div, NewScratch())
		if tr.repairs != 0 {
			t.Fatalf("trial %d: %d repairs; assemble must be bijective", trial, tr.repairs)
		}
		before := make(map[bitvec.Label]int, n)
		for _, l := range labels {
			before[l]++
		}
		for _, l := range tr.labels {
			before[l]--
		}
		for l, c := range before {
			if c != 0 {
				t.Fatalf("trial %d: label %s count off by %d — set not preserved",
					trial, l.String(dim), c)
			}
		}
	}
}

// TestEnhanceZeroValueScratch: a caller-supplied zero-value Scratch
// (not from NewScratch) must work and give the same result as the
// pooled default — the buffers self-grow on first use.
func TestEnhanceZeroValueScratch(t *testing.T) {
	topo, _ := topology.Grid(4, 4)
	ga := randomGraph(128, 400, 71)
	assign := balancedAssign(128, 16, 72)
	a, err := Enhance(ga, topo, assign, Options{NumHierarchies: 6, Seed: 73, Scratch: &Scratch{}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enhance(ga, topo, assign, Options{NumHierarchies: 6, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	if a.CocoAfter != b.CocoAfter || a.SwapsApplied != b.SwapsApplied {
		t.Errorf("zero-value scratch diverged: Coco %d vs %d, swaps %d vs %d",
			a.CocoAfter, b.CocoAfter, a.SwapsApplied, b.SwapsApplied)
	}
	if a.SwapsApplied > 0 && a.SwapGain >= 0 {
		t.Errorf("SwapGain = %d with %d swaps applied, want < 0", a.SwapGain, a.SwapsApplied)
	}
}
