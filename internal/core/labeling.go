// Package core implements TIMER, the paper's primary contribution: a
// multi-hierarchical label-swapping method that enhances a given mapping
// µ : Va → Vp of an application graph onto a partial-cube processor
// graph (paper Sections 4-6, Algorithms 1 and 2).
package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Labeling carries the bitvector labels of the application graph's
// vertices together with the layout information needed to interpret
// them (paper Section 4):
//
//	label(v) = lp(µ(v)) ∘ le(v)
//
// where the low Ext digits are the uniqueness extension le and the next
// DimGp digits are the processor label lp. DimGa = Ext + DimGp.
type Labeling struct {
	Ga   *graph.Graph
	Topo *topology.Topology
	// Labels has one entry per vertex of Ga.
	Labels []bitvec.Label
	// DimGp is the processor graph's partial-cube dimension.
	DimGp int
	// Ext is the number of extension digits:
	// max_vp ⌈log2 |µ⁻¹(vp)|⌉ (paper Definition 4.1).
	Ext int
	// DimGa = DimGp + Ext is the total label length.
	DimGa int
}

// LpMask selects the processor-label digits (sign +1 in Coco+).
func (l *Labeling) LpMask() uint64 { return bitvec.Mask(l.Ext, l.DimGa) }

// ExtMask selects the extension digits (sign −1 in Coco+).
func (l *Labeling) ExtMask() uint64 { return bitvec.Mask(0, l.Ext) }

// NewLabeling builds the initial labeling from a mapping (paper Section
// 4): every vertex inherits lp(µ(v)), and the vertices inside each block
// are numbered 0..|block|−1 in random order to form the unique extension.
func NewLabeling(ga *graph.Graph, topo *topology.Topology, assign []int32, rng *rand.Rand) (*Labeling, error) {
	if len(assign) != ga.N() {
		return nil, fmt.Errorf("core: %d assignments for %d vertices", len(assign), ga.N())
	}
	p := topo.P()
	blockSizes := make([]int, p)
	for v, pe := range assign {
		if pe < 0 || int(pe) >= p {
			return nil, fmt.Errorf("core: vertex %d assigned to PE %d, out of range [0,%d)", v, pe, p)
		}
		blockSizes[pe]++
	}
	// Ext = max over blocks of ⌈log2 |block|⌉ (Definition 4.1).
	ext := 0
	for _, s := range blockSizes {
		if s > 1 {
			if e := bits.Len(uint(s - 1)); e > ext {
				ext = e
			}
		}
	}
	dimGa := topo.Dim + ext
	if dimGa > bitvec.MaxDim {
		return nil, fmt.Errorf("core: dimGa = %d exceeds %d-digit labels", dimGa, bitvec.MaxDim)
	}
	// Number the vertices of each block in random order (the paper
	// shuffles the extension to provide a good random starting point).
	members := make([][]int32, p)
	for v, pe := range assign {
		members[pe] = append(members[pe], int32(v))
	}
	labels := make([]bitvec.Label, ga.N())
	for pe, vs := range members {
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		lp := topo.Labels[pe]
		for idx, v := range vs {
			labels[v] = lp<<uint(ext) | bitvec.Label(idx)
		}
	}
	return &Labeling{
		Ga:     ga,
		Topo:   topo,
		Labels: labels,
		DimGp:  topo.Dim,
		Ext:    ext,
		DimGa:  dimGa,
	}, nil
}

// Assignment extracts the mapping µ encoded in the labels: the PE whose
// label equals the lp part of each vertex label.
func (l *Labeling) Assignment() ([]int32, error) {
	assign := make([]int32, len(l.Labels))
	for v, lab := range l.Labels {
		pe := l.Topo.PEOf(lab >> uint(l.Ext))
		if pe < 0 {
			return nil, fmt.Errorf("core: vertex %d has lp label %s matching no PE",
				v, (lab >> uint(l.Ext)).String(l.DimGp))
		}
		assign[v] = int32(pe)
	}
	return assign, nil
}

// Coco evaluates the paper's Eq. (9) from the labels: Σ over edges of
// ωa(e)·h(lp(u), lp(v)). It equals mapping.Coco of the extracted
// assignment.
func (l *Labeling) Coco() int64 {
	return cocoOfLabels(l.Ga, l.Labels, l.LpMask())
}

// CocoPlus evaluates the combined objective of Eq. (14):
// Coco(la) − Div(la).
func (l *Labeling) CocoPlus() int64 {
	return cocoPlusOfLabels(l.Ga, l.Labels, l.LpMask(), l.ExtMask())
}

// Validate checks that the labels are unique, that every lp part matches
// a PE, and that the extension digits stay below the extension width.
func (l *Labeling) Validate() error {
	seen := bitvec.NewLabelIndex(len(l.Labels))
	for v, lab := range l.Labels {
		if uint64(lab)>>uint(l.DimGa) != 0 {
			return fmt.Errorf("core: label of %d uses digits beyond dimGa=%d", v, l.DimGa)
		}
		if prev, dup := seen.PutIfAbsent(lab, int32(v)); dup {
			return fmt.Errorf("core: vertices %d and %d share label %s", prev, v, lab.String(l.DimGa))
		}
		if l.Topo.PEOf(lab>>uint(l.Ext)) < 0 {
			return fmt.Errorf("core: vertex %d has lp part matching no PE", v)
		}
	}
	return nil
}

func cocoOfLabels(g *graph.Graph, labels []bitvec.Label, mask uint64) int64 {
	var total int64
	for v := 0; v < g.N(); v++ {
		lv := labels[v]
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v {
				total += ew[i] * int64(bitvec.HammingMasked(lv, labels[u], mask))
			}
		}
	}
	return total
}

func cocoPlusOfLabels(g *graph.Graph, labels []bitvec.Label, lpMask, extMask uint64) int64 {
	var total int64
	for v := 0; v < g.N(); v++ {
		lv := labels[v]
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v {
				total += ew[i] * int64(bitvec.SignedCost(lv, labels[u], lpMask, extMask))
			}
		}
	}
	return total
}

// cocoAndDivOfLabels walks the edges once and returns both restricted
// objectives: plus = Σ ω·h(plusMask digits) and minus = Σ ω·h(minusMask
// digits), so Coco (= plus, the masks being LpMask/ExtMask) and
// Coco+ (= plus − minus) come out of a single O(m) pass.
func cocoAndDivOfLabels(g *graph.Graph, labels []bitvec.Label, plusMask, minusMask uint64) (plus, minus int64) {
	for v := 0; v < g.N(); v++ {
		lv := labels[v]
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v {
				x := uint64(lv ^ labels[u])
				plus += ew[i] * int64(bits.OnesCount64(x&plusMask))
				minus += ew[i] * int64(bits.OnesCount64(x&minusMask))
			}
		}
	}
	return plus, minus
}
