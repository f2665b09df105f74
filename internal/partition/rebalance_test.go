package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// scanRebalance is the first-maximum scan rebalanceBisection replaced,
// kept as its oracle: every move rescans all vertices for the shrinking
// side's largest gain and runs until the window is hit or 2n+1 moves
// are spent. It reports the iteration at which the chosen vertex first
// repeated the previous move (-1 if never), so tests can tell the
// oscillating cases apart.
func scanRebalance(g *graph.Graph, side []int32, loL, hiL int64) (repeatAt int) {
	repeatAt = -1
	w0 := sideWeight(g, side)
	if w0 >= loL && w0 <= hiL {
		return
	}
	n := g.N()
	gain := make([]int64, n)
	for v := 0; v < n; v++ {
		gain[v] = moveGain(g, side, v)
	}
	last := -1
	for iter := 0; (w0 < loL || w0 > hiL) && iter <= 2*n; iter++ {
		var from int32
		if w0 > hiL {
			from = 0
		} else {
			from = 1
		}
		bestV := -1
		var bestScore int64 = math.MinInt64
		for v := 0; v < n; v++ {
			if side[v] != from {
				continue
			}
			if gain[v] > bestScore {
				bestScore = gain[v]
				bestV = v
			}
		}
		if bestV < 0 {
			return
		}
		if bestV == last && repeatAt < 0 {
			repeatAt = iter
		}
		last = bestV
		oldSide := side[bestV]
		if from == 0 {
			side[bestV] = 1
			w0 -= g.VertexWeight(bestV)
		} else {
			side[bestV] = 0
			w0 += g.VertexWeight(bestV)
		}
		nbr, ew := g.Neighbors(bestV)
		for i, u := range nbr {
			if side[u] == oldSide {
				gain[u] += 2 * ew[i]
			} else {
				gain[u] -= 2 * ew[i]
			}
		}
		gain[bestV] = -gain[bestV]
	}
	return
}

// heavyGraph is a random connected graph in which about one vertex in
// eight outweighs a narrow rebalance window.
func heavyGraph(n int, r *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, r.Intn(v), int64(1+r.Intn(4)))
	}
	for i := 0; i < n; i++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			b.AddEdge(u, v, int64(1+r.Intn(3)))
		}
	}
	for v := 0; v < n; v++ {
		w := int64(1 + r.Intn(2))
		if r.Intn(8) == 0 {
			w = int64(10 + r.Intn(30))
		}
		b.SetVertexWeight(v, w)
	}
	return b.Build()
}

// TestRebalanceMatchesScan: the heap-driven rebalance must leave the
// same sides as the scan on random graphs with heavy vertices, random
// starting sides and narrow (often unreachable) windows — including
// runs that end in a heavy vertex flipping back and forth, stopped on
// either parity.
func TestRebalanceMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sc := NewScratch()
	oscillated := map[int]int{} // parity of 2n−iter at the first repeat
	for trial := 0; trial < 3000; trial++ {
		n := 2 + r.Intn(60)
		g := heavyGraph(n, r)
		side := make([]int32, n)
		for v := range side {
			side[v] = int32(r.Intn(2))
		}
		total := g.TotalVertexWeight()
		loL := r.Int63n(total + 1)
		hiL := loL + r.Int63n(3)
		want := append([]int32(nil), side...)
		repeatAt := scanRebalance(g, want, loL, hiL)
		if repeatAt >= 0 {
			oscillated[(2*n-repeatAt)%2]++
		}
		sc.rebalanceBisection(g, side, loL, hiL)
		for v := range want {
			if side[v] != want[v] {
				t.Fatalf("trial %d (n=%d, window [%d,%d], repeat at %d): side[%d] = %d, want %d",
					trial, n, loL, hiL, repeatAt, v, side[v], want[v])
			}
		}
	}
	if oscillated[0] == 0 || oscillated[1] == 0 {
		t.Fatalf("oscillating cases by parity %v: want both parities covered", oscillated)
	}
}
