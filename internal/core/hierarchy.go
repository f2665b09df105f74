package core

import (
	"repro/internal/bitvec"
	"repro/internal/graph"
)

// hlevel is one level of a TIMER hierarchy. Level index k (1-based) has
// labels of width dimGa−(k−1): the k−1 least significant permuted digits
// have been cut off by contraction. Labels are unique per level.
//
// A level keeps no graph. Its graph is read only while the level is the
// current one in buildHierarchy (its swap pass and its contraction into
// the next level); assemble (Algorithm 2) needs only labels and parent
// links. All slices are owned by the enclosing Scratch and reused
// across hierarchies.
type hlevel struct {
	labels []bitvec.Label
	// parent maps this level's vertices to the next coarser level's
	// vertices (unset on the topmost level).
	parent []int32
	// swaps counts the label swaps applied on this level (reporting);
	// gain accumulates their exact Coco+ deltas (all ≤ 0).
	swaps int
	gain  int64
}

// swapPass implements lines 10-12 of Algorithm 1 on one level: for every
// sibling pair u, v (labels agree on all but the least significant
// digit), swap their labels iff that decreases Coco+ on this level's
// graph. sign is the Coco+ sign of the digit being decided at this level
// (+1 if the underlying original digit belongs to lp, −1 for le).
//
// Because siblings agree on every other digit, the gain of a swap
// depends only on the last digits of the pair's neighbors: moving u from
// digit 0 to 1 changes edge {u,w}'s contribution by sign·ω(u,w)·(1−2b_w)
// where b_w is w's last digit, and symmetrically for v. byLabel is the
// label→vertex index of this level (updated in place on swaps).
// It returns the number of swaps applied and their summed Coco+ delta,
// so callers maintain the level objective incrementally instead of
// re-walking all edges.
func swapPass(g *graph.Graph, labels []bitvec.Label, sign int, byLabel *bitvec.LabelIndex) (int, int64) {
	swaps := 0
	var gain int64
	n := g.N()
	for u := 0; u < n; u++ {
		lu := labels[u]
		if lu&1 != 0 {
			continue // visit each pair from its even member
		}
		v32, ok := byLabel.Get(lu ^ 1)
		if !ok {
			continue // no sibling
		}
		v := int(v32)
		if delta := siblingSwapDelta(g, labels, u, v, sign); delta < 0 {
			labels[u], labels[v] = labels[v], labels[u]
			byLabel.Put(labels[u], int32(u))
			byLabel.Put(labels[v], int32(v))
			swaps++
			gain += delta
		}
	}
	return swaps, gain
}

// siblingSwapDelta computes the exact Coco+ change from swapping the
// labels of siblings u (last digit 0) and v (last digit 1):
//
//	delta = sign · [ Σ_{w∈N(u)\{v}} ω(u,w)(1−2b_w)
//	               + Σ_{w∈N(v)\{u}} ω(v,w)(2b_w−1) ]
//
// where b_w is w's last digit. Only the last digit can contribute since
// siblings agree on every other digit.
func siblingSwapDelta(g *graph.Graph, labels []bitvec.Label, u, v, sign int) int64 {
	var acc int64
	nbr, ew := g.Neighbors(u)
	for i, w := range nbr {
		if int(w) == v {
			continue
		}
		acc += ew[i] * (1 - 2*int64(labels[w]&1))
	}
	nbr, ew = g.Neighbors(v)
	for i, w := range nbr {
		if int(w) == u {
			continue
		}
		acc += ew[i] * (2*int64(labels[w]&1) - 1)
	}
	return int64(sign) * acc
}

// contract implements the contract(·,·,·) of Algorithm 1 on level lv,
// whose graph is g: vertices whose labels agree on all but the last
// digit merge; every label loses its last digit; the parent vector
// records the hierarchy. The coarse labels are built into next's
// reusable storage and the coarse graph into dst, which must not be g.
func (sc *Scratch) contract(g *graph.Graph, lv, next *hlevel, dst *graph.Graph) {
	n := g.N()
	sc.byLabel.Reset(n)
	lv.parent = graph.Resize(lv.parent, n)
	next.labels = next.labels[:0]
	for v := 0; v < n; v++ {
		pref := lv.labels[v] >> 1
		id, existed := sc.byLabel.PutIfAbsent(pref, int32(len(next.labels)))
		if !existed {
			next.labels = append(next.labels, pref)
		}
		lv.parent[v] = id
	}
	sc.contractor.ContractInto(dst, g, lv.parent, len(next.labels))
	next.swaps, next.gain = 0, 0
}

// suffixTrie is a counting trie over the label set L, keyed by least
// significant digits first. count[node] is the number of *unclaimed*
// labels whose suffix reaches that node. It realizes the existence check
// of line 10 in Algorithm 2 with availability tracking: a digit is
// viable only while an unclaimed label with the resulting suffix
// remains, which makes assemble() a bijection onto L by construction
// (every vertex claims exactly one label and claims are decremented
// along the walk). The node arrays are retained across build calls, so
// a warm trie rebuilds without allocating.
type suffixTrie struct {
	child [][2]int32
	count []int32
}

// build (re)initializes the trie over labels of the given width.
func (t *suffixTrie) build(labels []bitvec.Label, dim int) {
	t.child = append(t.child[:0], [2]int32{-1, -1})
	t.count = append(t.count[:0], 0)
	for _, l := range labels {
		cur := int32(0)
		t.count[0]++
		for d := 0; d < dim; d++ {
			b := l.Bit(d)
			next := t.child[cur][b]
			if next < 0 {
				next = int32(len(t.child))
				t.child = append(t.child, [2]int32{-1, -1})
				t.count = append(t.count, 0)
				t.child[cur][b] = next
			}
			cur = next
			t.count[cur]++
		}
	}
}

// step returns the child of node along digit b if it still has unclaimed
// labels, or -1.
func (t *suffixTrie) step(node int32, b uint64) int32 {
	c := t.child[node][b]
	if c >= 0 && t.count[c] > 0 {
		return c
	}
	return -1
}

// claim decrements the availability along a finished walk (the nodes the
// caller visited, in order).
func (t *suffixTrie) claim(path []int32) {
	t.count[0]--
	for _, n := range path {
		t.count[n]--
	}
}

// buildHierarchy runs the inner loop of Algorithm 1 (lines 8-14) in the
// permuted label space: alternating swap passes and contractions, from
// the full labels down to width-2 labels (or earlier if the graph
// degenerates to a single vertex). The level-0 labels are initialized
// from sc.perm; signs[j] is the Coco+ sign of permuted digit j. Levels
// land in sc.levels[:sc.nlev], finest first.
//
// g is the current level's graph: ga on level 0, and level k ≥ 1 is
// contracted into sc.coarse[k%2], the buffer not holding level k−1. A
// level's graph is dead once the next level is contracted from it, so
// a trial keeps two coarse graphs live however deep its hierarchy.
func (sc *Scratch) buildHierarchy(ga *graph.Graph, dimGa int, signs []int8, swapRounds int) {
	if swapRounds < 1 {
		swapRounds = 1
	}
	lv0 := sc.level(0)
	lv0.labels = graph.Resize(lv0.labels, len(sc.perm))
	copy(lv0.labels, sc.perm)
	lv0.swaps, lv0.gain = 0, 0
	sc.nlev = 1
	g := ga
	for k := 1; k <= dimGa-2; k++ {
		if g.N() <= 1 {
			break
		}
		next := sc.level(k) // grows sc.levels before cur points into it
		cur := &sc.levels[k-1]
		sc.byLabel.Reset(g.N())
		for v, l := range cur.labels {
			sc.byLabel.Put(l, int32(v))
		}
		for round := 0; round < swapRounds; round++ {
			s, d := swapPass(g, cur.labels, int(signs[k-1]), &sc.byLabel)
			cur.swaps += s
			cur.gain += d
			if s == 0 {
				break
			}
		}
		dst := &sc.coarse[k%2]
		sc.contract(g, cur, next, dst)
		g = dst
		sc.nlev++
	}
}

// assemble implements Algorithm 2: derive a new fine labeling from the
// hierarchy, digit by digit. Digit 0 is each vertex's own (post-swap)
// last digit; digits 1..K−1 are inherited from the ancestors' last
// digits when the partial label stays inside the original label set L
// (tracked with the suffix trie), otherwise inverted; remaining digits
// follow the topmost ancestor's surviving label. The trie guarantees
// every emitted label belongs to L. The result lands in out (len = n);
// path is walk scratch with capacity ≥ dimGa.
func assemble(levels []hlevel, dimGa int, trie *suffixTrie, out []bitvec.Label, path []int32) {
	fine := &levels[0]
	n := len(fine.labels)
	K := len(levels)
	for v := 0; v < n; v++ {
		path = path[:0]
		lab := fine.labels[v]
		d0 := uint64(lab & 1)
		// The own last digit is always available: the multiset of digit-0
		// values in L matches the vertices' own digits exactly, and each
		// vertex only ever claims its own (paper: the LSB is inherited and
		// does not change).
		node := trie.step(0, d0)
		newLabel := bitvec.Label(d0)
		path = append(path, node)
		anc := int32(v)
		// Digits 1..K-1 from ancestors at levels 2..K (preferred digit =
		// ancestor's last digit; fall back to the inverse when no
		// unclaimed label matches).
		for k := 1; k < K; k++ {
			anc = levels[k-1].parent[anc]
			pref := uint64(levels[k].labels[anc] & 1)
			next := trie.step(node, pref)
			if next < 0 {
				pref = 1 - pref
				next = trie.step(node, pref)
			}
			newLabel |= bitvec.Label(pref) << uint(k)
			node = next
			path = append(path, node)
		}
		// Remaining digits K..dimGa-1 follow the topmost ancestor's
		// surviving label.
		top := levels[K-1].labels[anc]
		for d := K; d < dimGa; d++ {
			pref := uint64(top>>uint(d-K+1)) & 1
			next := trie.step(node, pref)
			if next < 0 {
				pref = 1 - pref
				next = trie.step(node, pref)
			}
			newLabel |= bitvec.Label(pref) << uint(d)
			node = next
			path = append(path, node)
		}
		trie.claim(path)
		out[v] = newLabel
	}
}

// repairDuplicates restores bijectivity onto the label set L when
// assemble produced collisions (possible because the existence check
// uses the fixed set L, see DESIGN.md): duplicate holders beyond the
// first keep-holder are reassigned to the unused labels, choosing for
// each orphan the free label minimizing its local Coco+ contribution.
// owner is the caller's reusable label index. Returns the number of
// repaired vertices (0 in the common case).
func repairDuplicates(g *graph.Graph, labels []bitvec.Label, all []bitvec.Label,
	lpMask, extMask uint64, owner *bitvec.LabelIndex) int {
	owner.Reset(len(labels))
	var orphans []int32
	for v, l := range labels {
		if _, dup := owner.PutIfAbsent(l, int32(v)); dup {
			orphans = append(orphans, int32(v))
		}
	}
	if len(orphans) == 0 {
		return 0
	}
	var free []bitvec.Label
	for _, l := range all {
		if _, used := owner.Get(l); !used {
			free = append(free, l)
		}
	}
	for _, v := range orphans {
		bestI := 0
		var bestCost int64 = 1 << 62
		for i, cand := range free {
			var cost int64
			nbr, ew := g.Neighbors(int(v))
			for j, u := range nbr {
				cost += ew[j] * int64(bitvec.SignedCost(cand, labels[u], lpMask, extMask))
			}
			if cost < bestCost {
				bestCost, bestI = cost, i
			}
		}
		labels[v] = free[bestI]
		free[bestI] = free[len(free)-1]
		free = free[:len(free)-1]
	}
	return len(orphans)
}
