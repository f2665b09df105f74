package partition

import (
	"repro/internal/graph"
)

// refineBisection improves a 2-way partition with Fiduccia–Mattheyses
// passes: each pass tentatively moves every vertex at most once in
// best-gain-first order (subject to the weight window on side 0), then
// rolls back to the best prefix seen. Passes repeat until one fails to
// improve the cut or the pass budget is exhausted. All working storage
// comes from the scratch.
func (sc *Scratch) refineBisection(g *graph.Graph, side []int32, loL, hiL int64, maxPasses int) {
	n := g.N()
	gain := graph.Resize(sc.gain, n)
	moved := graph.Resize(sc.moved, n)
	sc.gain, sc.moved = gain, moved
	moveLog := sc.moveLog[:0]
	h := sc.h

	for pass := 0; pass < maxPasses; pass++ {
		w0 := sideWeight(g, side)
		// Initial gains; only boundary vertices can have gain > -wdeg, but
		// all are movable, so seed the heap with boundary vertices and add
		// others lazily as their gains change.
		h = h[:0]
		for v := 0; v < n; v++ {
			moved[v] = false
			gain[v] = moveGain(g, side, v)
			if isBoundary(g, side, v) {
				h = append(h, heapEntry{int32(v), gain[v]})
			}
		}
		h.init()

		moveLog = moveLog[:0]
		var cum, best int64
		bestPrefix := 0

		for len(h) > 0 {
			e := h.pop()
			v := int(e.v)
			if moved[v] || e.gain != gain[v] {
				continue
			}
			// Weight feasibility of moving v to the other side.
			wv := g.VertexWeight(v)
			var nw0 int64
			if side[v] == 0 {
				nw0 = w0 - wv
			} else {
				nw0 = w0 + wv
			}
			if nw0 < loL || nw0 > hiL {
				continue
			}
			// Apply the move.
			moved[v] = true
			cum += gain[v]
			side[v] = 1 - side[v]
			w0 = nw0
			moveLog = append(moveLog, int32(v))
			if cum > best {
				best = cum
				bestPrefix = len(moveLog)
			}
			// Update neighbor gains.
			nbr, ew := g.Neighbors(v)
			for i, u := range nbr {
				if moved[u] {
					continue
				}
				if side[u] == side[v] {
					// u's edge to v became internal: gain drops by 2w.
					gain[u] -= 2 * ew[i]
				} else {
					gain[u] += 2 * ew[i]
				}
				h.push(heapEntry{u, gain[u]})
			}
		}
		// Roll back everything after the best prefix.
		for i := len(moveLog) - 1; i >= bestPrefix; i-- {
			v := moveLog[i]
			side[v] = 1 - side[v]
		}
		if best <= 0 {
			break
		}
	}
	sc.h, sc.moveLog = h, moveLog
}

// moveGain is the cut reduction from moving v to the other side:
// external minus internal incident weight.
func moveGain(g *graph.Graph, side []int32, v int) int64 {
	var gain int64
	nbr, ew := g.Neighbors(v)
	for i, u := range nbr {
		if side[u] != side[v] {
			gain += ew[i]
		} else {
			gain -= ew[i]
		}
	}
	return gain
}

func isBoundary(g *graph.Graph, side []int32, v int) bool {
	nbr, _ := g.Neighbors(v)
	for _, u := range nbr {
		if side[u] != side[v] {
			return true
		}
	}
	return false
}
