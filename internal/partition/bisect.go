package partition

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// multilevelBisect splits g into sides 0/1 where side 0 receives
// approximately fracL of the total vertex weight, within (1+epsBis)
// slack on both sides. The returned side assignment aliases scratch
// storage and is valid until the scratch's next use.
func (sc *Scratch) multilevelBisect(g *graph.Graph, cfg Config, rng *rand.Rand, fracL, epsBis float64) []int32 {
	total := g.TotalVertexWeight()
	targetL := int64(math.Round(fracL * float64(total)))
	hiL := int64(math.Floor((1 + epsBis) * float64(targetL)))
	hiR := int64(math.Floor((1 + epsBis) * float64(total-targetL)))
	loL := total - hiR
	// With lumpy vertex weights an ε-window can be unreachable; widen it
	// to always admit a split within one max-weight vertex of the target.
	// Global balance is restored by enforceBalance after recursion.
	var maxVW int64 = 1
	for v := 0; v < g.N(); v++ {
		if w := g.VertexWeight(v); w > maxVW {
			maxVW = w
		}
	}
	if hiL < targetL+maxVW {
		hiL = targetL + maxVW
	}
	if loL > targetL-maxVW {
		loL = targetL - maxVW
	}
	if hiL >= total {
		hiL = total - 1
	}
	if loL < 1 {
		loL = 1
	}

	nlev := sc.buildHierarchy(g, cfg, rng, hiL)
	coarsest := sc.levels[nlev-1].g

	side := sc.initialBisection(coarsest, rng, cfg.InitialTries, targetL, loL, hiL)
	sc.refineBisection(coarsest, side, loL, hiL, cfg.FMPasses)

	for li := nlev - 1; li >= 1; li-- {
		coarse := sc.levels[li].coarse
		fine := graph.Resize(sc.levels[li-1].side, len(coarse))
		projectInto(fine, coarse, side)
		sc.levels[li-1].side = fine
		sc.refineBisection(sc.levels[li-1].g, fine, loL, hiL, cfg.FMPasses)
		side = fine
	}
	sc.rebalanceBisection(g, side, loL, hiL)
	return side
}

// initialBisection runs several greedy graph-growing attempts and keeps
// the best (feasible-first, then lowest cut), double-buffering the
// tries through the scratch.
func (sc *Scratch) initialBisection(g *graph.Graph, rng *rand.Rand, tries int, targetL, loL, hiL int64) []int32 {
	n := g.N()
	cur := graph.Resize(sc.bisA, n)
	best := graph.Resize(sc.bisB, n)
	var bestCut int64 = math.MaxInt64
	bestFeasible := false
	haveBest := false
	for t := 0; t < tries; t++ {
		sc.greedyGrowInto(cur, g, rng, targetL)
		sc.rebalanceBisection(g, cur, loL, hiL)
		w0 := sideWeight(g, cur)
		feasible := w0 >= loL && w0 <= hiL
		cut := Cut(g, cur)
		if !haveBest ||
			(feasible && !bestFeasible) ||
			(feasible == bestFeasible && cut < bestCut) {
			cur, best = best, cur
			bestCut, bestFeasible, haveBest = cut, feasible, true
		}
	}
	sc.bisA, sc.bisB = cur, best
	return best
}

// greedyGrowInto grows side 0 from a random seed, always absorbing the
// frontier vertex with the largest connection to the grown region minus
// connection to the outside (greedy graph growing à la Metis), until the
// region's weight reaches targetL. The assignment is written into side.
func (sc *Scratch) greedyGrowInto(side []int32, g *graph.Graph, rng *rand.Rand, targetL int64) {
	n := g.N()
	for i := range side {
		side[i] = 1
	}
	gain := graph.Resize(sc.gain, n)
	sc.gain = gain
	clear(gain)
	h := sc.h[:0]

	seed := rng.Intn(n)
	var w0 int64
	absorb := func(v int) {
		side[v] = 0
		w0 += g.VertexWeight(v)
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if side[u] == 1 {
				gain[u] += 2 * ew[i] // edge flips from external to internal
				h.push(heapEntry{u, gain[u]})
			}
		}
	}
	absorb(seed)
	for w0 < targetL && len(h) > 0 {
		e := h.pop()
		v := int(e.v)
		if side[v] == 0 || e.gain != gain[v] {
			continue // stale entry
		}
		absorb(v)
	}
	// Disconnected graphs: the frontier may empty before reaching the
	// target; keep absorbing arbitrary side-1 vertices.
	for v := 0; w0 < targetL && v < n; v++ {
		if side[v] == 1 {
			absorb(v)
		}
	}
	sc.h = h
}

func sideWeight(g *graph.Graph, side []int32) int64 {
	var w0 int64
	for v := 0; v < g.N(); v++ {
		if side[v] == 0 {
			w0 += g.VertexWeight(v)
		}
	}
	return w0
}

// rebalanceBisection moves vertices across the cut (cheapest damage
// first) until side 0's weight lies in [loL, hiL]. Each move takes the
// shrinking side's vertex of largest gain, the smallest id among equal
// gains. Gains are computed once and maintained incrementally, and each
// side's candidates sit in a heap under that same total order, so the
// heap's pops are exactly the first maximum of a scan in id order.
func (sc *Scratch) rebalanceBisection(g *graph.Graph, side []int32, loL, hiL int64) {
	w0 := sideWeight(g, side)
	if w0 >= loL && w0 <= hiL {
		return
	}
	n := g.N()
	gain := graph.Resize(sc.gain, n)
	sc.gain = gain
	hs := &sc.rebal
	hs[0], hs[1] = hs[0][:0], hs[1][:0]
	for v := 0; v < n; v++ {
		gain[v] = moveGain(g, side, v)
		hs[side[v]] = append(hs[side[v]], heapEntry{int32(v), gain[v]})
	}
	hs[0].init()
	hs[1].init()
	// The iteration bound guards against oscillation when no assignment
	// can hit the window exactly (possible with heavy vertices).
	last := -1
	for iter := 0; (w0 < loL || w0 > hiL) && iter <= 2*n; iter++ {
		var from int32 // side to shrink
		if w0 > hiL {
			from = 0
		} else {
			from = 1
		}
		v := hs[from].popValid(side, gain, from)
		if v < 0 {
			return // nothing movable; give up (caller re-checks feasibility)
		}
		if v == last {
			// Moving v back restores the state before its last move, so
			// from here on v would flip every iteration until the bound.
			// Stop in the state the bound would leave.
			if (2*n-iter)%2 == 0 {
				w0 = sc.flipRebalance(g, side, gain, v, w0)
			}
			return
		}
		w0 = sc.flipRebalance(g, side, gain, v, w0)
		last = v
	}
}

// flipRebalance moves v to the other side and returns side 0's new
// weight. The flip inverts v's gain and toggles the edge terms of its
// neighbors: an edge that was internal to u is now external (+2w) and
// vice versa. Every changed gain enters its side's heap.
func (sc *Scratch) flipRebalance(g *graph.Graph, side []int32, gain []int64, v int, w0 int64) int64 {
	oldSide := side[v]
	side[v] = 1 - oldSide
	if oldSide == 0 {
		w0 -= g.VertexWeight(v)
	} else {
		w0 += g.VertexWeight(v)
	}
	nbr, ew := g.Neighbors(v)
	for i, u := range nbr {
		if side[u] == oldSide {
			gain[u] += 2 * ew[i]
		} else {
			gain[u] -= 2 * ew[i]
		}
		sc.rebal[side[u]].push(heapEntry{u, gain[u]})
	}
	gain[v] = -gain[v]
	sc.rebal[side[v]].push(heapEntry{int32(v), gain[v]})
	return w0
}

// heapEntry is a lazily-invalidated max-heap entry.
type heapEntry struct {
	v    int32
	gain int64
}

// gainHeap is a non-boxing max-heap of heapEntry. Its sift operations
// are exact ports of container/heap's up/down, so the pop order — and
// with it every tie-break downstream — is identical to the previous
// interface{}-boxing implementation, minus the per-entry allocation.
type gainHeap []heapEntry

func (h gainHeap) less(i, j int) bool { return h[i].gain > h[j].gain }
func (h gainHeap) swap(i, j int)      { h[i], h[j] = h[j], h[i] }

// push appends e and restores the heap property (container/heap.Push).
func (h *gainHeap) push(e heapEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the maximum entry (container/heap.Pop).
func (h *gainHeap) pop() heapEntry {
	s := *h
	n := len(s) - 1
	s.swap(0, n)
	s.down(0, n)
	e := s[n]
	*h = s[:n]
	return e
}

// init establishes the heap property over arbitrary contents
// (container/heap.Init).
func (h gainHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h gainHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

func (h gainHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			return
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

// idHeap is rebalanceBisection's candidate heap: a max-heap by gain,
// smaller vertex id first among equal gains. Entries are invalidated
// lazily — one is current iff its vertex is still on the heap's side
// with the same gain — and every gain or side change pushes a new one.
type idHeap []heapEntry

func (h idHeap) less(i, j int) bool {
	return h[i].gain > h[j].gain || h[i].gain == h[j].gain && h[i].v < h[j].v
}

func (h *idHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h idHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h idHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j+1 < n && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// popValid removes entries until it pops a current one for side and
// returns its vertex, or -1 once the heap is empty.
func (h *idHeap) popValid(side []int32, gain []int64, s int32) int {
	for len(*h) > 0 {
		old := *h
		e := old[0]
		n := len(old) - 1
		old[0] = old[n]
		*h = old[:n]
		h.down(0)
		if side[e.v] == s && gain[e.v] == e.gain {
			return int(e.v)
		}
	}
	return -1
}
