package graph

// BFS computes unweighted shortest-path distances from src to every
// vertex. Unreachable vertices get distance -1.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	g.BFSInto(src, dist, nil)
	return dist
}

// BFSInto runs BFS from src into a caller-provided distance slice (which
// must be pre-filled with -1) and an optional queue buffer, avoiding
// allocation in hot loops. It returns the number of reached vertices.
func (g *Graph) BFSInto(src int, dist []int32, queue []int32) int {
	if queue == nil {
		queue = make([]int32, 0, g.N())
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	reached := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v]
		nbr, _ := g.Neighbors(int(v))
		for _, u := range nbr {
			if dist[u] < 0 {
				dist[u] = d + 1
				queue = append(queue, u)
				reached++
			}
		}
	}
	return reached
}

// Eccentricity returns the largest finite BFS distance from v.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	var ecc int32
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Components labels each vertex with a component id in [0, count) and
// returns the labeling and the component count.
func (g *Graph) Components() ([]int32, int) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	count := int32(0)
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			nbr, _ := g.Neighbors(int(v))
			for _, u := range nbr {
				if comp[u] < 0 {
					comp[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, int(count)
}

// IsConnected reports whether g has at most one connected component.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	return g.BFSInto(0, dist, nil) == g.N()
}

// LargestComponent returns the induced subgraph of the largest connected
// component together with the mapping old-vertex -> new-vertex (-1 for
// vertices outside the component).
func (g *Graph) LargestComponent() (*Graph, []int32) {
	comp, count := g.Components()
	if count <= 1 {
		id := make([]int32, g.N())
		for i := range id {
			id[i] = int32(i)
		}
		return g, id
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	keep := make([]int32, 0, sizes[best])
	for v, c := range comp {
		if int(c) == best {
			keep = append(keep, int32(v))
		}
	}
	return g.InducedSubgraph(keep)
}

// IsBipartite reports whether g is 2-colorable, and if so returns a valid
// 0/1 coloring (nil otherwise). Bipartiteness is a necessary condition
// for the partial-cube property (paper Section 3, step 1).
func (g *Graph) IsBipartite() (bool, []int8) {
	color := make([]int8, g.N())
	for i := range color {
		color[i] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if color[s] >= 0 {
			continue
		}
		color[s] = 0
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			cv := color[v]
			nbr, _ := g.Neighbors(int(v))
			for _, u := range nbr {
				if color[u] < 0 {
					color[u] = 1 - cv
					queue = append(queue, u)
				} else if color[u] == cv {
					return false, nil
				}
			}
		}
	}
	return true, color
}
