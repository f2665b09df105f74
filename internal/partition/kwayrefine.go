package partition

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// kwayRefine performs greedy boundary refinement on a k-way partition:
// repeatedly move boundary vertices to the adjacent block with the
// largest connectivity gain, subject to the balance limit. A few rounds
// suffice after recursive bisection; the loop stops early when a round
// makes no move.
func (sc *Scratch) kwayRefine(g *graph.Graph, part []int32, cfg Config, rng *rand.Rand) {
	k := cfg.K
	if k <= 1 {
		return
	}
	limit := int64(math.Floor((1 + cfg.Epsilon) * float64(idealBlockWeight(g.TotalVertexWeight(), k))))
	weights := sc.blockWeightsInto(g, part, k)

	// conn[b] holds v's connectivity to block b during the scan of v;
	// stamp avoids clearing between vertices.
	conn, stamp := sc.stampedConn(k)
	var curStamp int32

	const rounds = 3
	for round := 0; round < rounds; round++ {
		sc.perm = permInto(rng, sc.perm, g.N())
		movesMade := 0
		for _, v := range sc.perm {
			pv := part[v]
			nbr, ew := g.Neighbors(v)
			curStamp++
			boundary := false
			for i, u := range nbr {
				pu := part[u]
				if stamp[pu] != curStamp {
					stamp[pu] = curStamp
					conn[pu] = 0
				}
				conn[pu] += ew[i]
				if pu != pv {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			var connV int64
			if stamp[pv] == curStamp {
				connV = conn[pv]
			}
			wv := g.VertexWeight(v)
			bestB := int32(-1)
			var bestGain int64 = math.MinInt64
			for i := range nbr {
				b := part[nbr[i]]
				if b == pv || stamp[b] != curStamp {
					continue
				}
				if weights[b]+wv > limit {
					continue
				}
				gain := conn[b] - connV
				if gain < 0 {
					continue
				}
				if gain > bestGain || (gain == bestGain && weights[b] < weights[bestB]) {
					bestGain = gain
					bestB = b
				}
			}
			// Positive gain always moves; zero gain only when it improves
			// balance (strictly lighter target).
			if bestB >= 0 && (bestGain > 0 || weights[bestB]+wv < weights[pv]) {
				weights[pv] -= wv
				weights[bestB] += wv
				part[v] = bestB
				movesMade++
			}
		}
		if movesMade == 0 {
			break
		}
	}
}

// enforceBalance repairs any block exceeding the (1+ε) limit by moving
// its least-damaging boundary vertices to the lightest adjacent block
// with room (falling back to the globally lightest block). With unit
// vertex weights this always terminates with a balanced partition.
func (sc *Scratch) enforceBalance(g *graph.Graph, part []int32, cfg Config) {
	k := cfg.K
	if k <= 1 {
		return
	}
	limit := int64(math.Floor((1 + cfg.Epsilon) * float64(idealBlockWeight(g.TotalVertexWeight(), k))))
	weights := sc.blockWeightsInto(g, part, k)

	// targetW[b] accumulates v's external weight toward block b during
	// the scan of v; targetOrder preserves first-seen order, because map
	// iteration order here would make tie-breaks (and thus the whole
	// partition) nondeterministic across runs. The stamp makes clearing
	// between vertices O(touched blocks).
	targetW, stamp := sc.stampedConn(k)
	var curStamp int32

	for iter := 0; iter < g.N(); iter++ {
		over := int32(-1)
		for b, w := range weights {
			if w > limit {
				over = int32(b)
				break
			}
		}
		if over < 0 {
			return
		}
		// Cheapest vertex of the overloaded block to evict, and where to.
		bestV, bestB := -1, int32(-1)
		var bestScore int64 = math.MinInt64
		for v := 0; v < g.N(); v++ {
			if part[v] != over {
				continue
			}
			wv := g.VertexWeight(v)
			nbr, ew := g.Neighbors(v)
			var internal int64
			curStamp++
			targetOrder := sc.targetOrder[:0]
			for i, u := range nbr {
				if part[u] == over {
					internal += ew[i]
				} else {
					b := part[u]
					if stamp[b] != curStamp {
						stamp[b] = curStamp
						targetW[b] = 0
						targetOrder = append(targetOrder, b)
					}
					targetW[b] += ew[i]
				}
			}
			sc.targetOrder = targetOrder
			for _, b := range targetOrder {
				if weights[b]+wv > limit {
					continue
				}
				if score := targetW[b] - internal; score > bestScore {
					bestScore, bestV, bestB = score, v, b
				}
			}
			if len(targetOrder) == 0 || bestV < 0 {
				// Fall back to the lightest block anywhere.
				lb := lightestBlock(weights, over)
				if weights[lb]+wv <= limit {
					if score := -internal - 1; score > bestScore {
						bestScore, bestV, bestB = score, v, lb
					}
				}
			}
		}
		if bestV < 0 {
			return // cannot improve further (pathological weights)
		}
		wv := g.VertexWeight(bestV)
		weights[over] -= wv
		weights[bestB] += wv
		part[bestV] = bestB
	}
}

// blockWeightsInto computes block weights into the scratch's weights
// buffer (the arena form of BlockWeights).
func (sc *Scratch) blockWeightsInto(g *graph.Graph, part []int32, k int) []int64 {
	w := graph.Resize(sc.weights, k)
	sc.weights = w
	clear(w)
	for v := 0; v < g.N(); v++ {
		w[part[v]] += g.VertexWeight(v)
	}
	return w
}

// stampedConn returns the shared conn/stamp pair sized for n ids, with
// the stamps cleared so a fresh stamping epoch can begin.
func (sc *Scratch) stampedConn(n int) ([]int64, []int32) {
	sc.conn = graph.Resize(sc.conn, n)
	sc.stamp = graph.Resize(sc.stamp, n)
	clear(sc.stamp)
	return sc.conn, sc.stamp
}

func lightestBlock(weights []int64, exclude int32) int32 {
	best := int32(-1)
	var bw int64 = math.MaxInt64
	for b, w := range weights {
		if int32(b) == exclude {
			continue
		}
		if w < bw {
			bw, best = w, int32(b)
		}
	}
	return best
}
