package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// PaperCell is one (topology, case) cell of the paper's Table 2 and
// Figure 5: geometric means, over the cell's networks, of each
// scenario's min/mean/max quotients.
type PaperCell struct {
	// Topology labels the row: the paper's name for its five processor
	// graphs ("grid16x16", "8-dimHQ", ...), the canonical spec otherwise.
	Topology string
	Case     engine.Case
	// Networks counts the scenarios folded into the cell; the quotients
	// of a cell without any are NaN.
	Networks int
	// QT is TIMER's time over the base-stage time (Table 2); NaN when a
	// network of the cell has no measured base time.
	QT metrics.Triple
	// QCut and QCo are the cut and Coco quotients after/before TIMER
	// (Figure 5); QCoGSD is the geometric standard deviation of the
	// networks' mean Coco quotients, Figure 5's gsd(Co).
	QCut, QCo metrics.Triple
	QCoGSD    float64
}

// WriteReport renders the paper's Section 7 results from a matrix run:
// Table 1 (the networks), Table 2 (running-time quotients), Figures
// 5a–5d (quality quotients of cases c1–c4) and Table 3 (partition
// times). Failed scenarios and the non-paper RANDOM case are left out.
func WriteReport(w io.Writer, r *Results) error {
	cells := PaperCells(r)
	if err := writeTable1(w, r); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := writeTable2(w, cells); err != nil {
		return err
	}
	for _, c := range engine.Cases() {
		fmt.Fprintln(w)
		if err := writeFigure5(w, c, cells); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return writeTable3(w, r)
}

// PaperCells folds the scenarios into one cell per topology and case
// c1–c4: topologies in the matrix's order, then those only extra cells
// use, the cases of a topology in paper order. A scenario's time
// quotient divides its TimerSeconds by its base time (see baseTimes).
func PaperCells(r *Results) []PaperCell {
	base := baseTimes(r)
	type agg struct{ qt, qcut, qco metrics.TripleAgg }
	var topos []string
	aggs := make(map[string]map[engine.Case]*agg)
	row := func(label string) map[engine.Case]*agg {
		if aggs[label] == nil {
			aggs[label] = make(map[engine.Case]*agg)
			for _, c := range engine.Cases() {
				aggs[label][c] = new(agg)
			}
			topos = append(topos, label)
		}
		return aggs[label]
	}
	for _, t := range r.Spec.Topologies {
		if s, err := topology.ParseSpec(t); err == nil {
			row(paperName(s.String()))
		}
	}
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		a := row(paperName(sc.Topology))[sc.Case]
		if a == nil || sc.Quality == nil || sc.Perf == nil {
			continue // not a paper case, or failed
		}
		a.qt.Add(metrics.Quotient(sc.Perf.TimerSeconds, base[i]))
		a.qcut.Add(sc.Quality.CutQuotient)
		a.qco.Add(sc.Quality.CocoQuotient)
	}
	cells := make([]PaperCell, 0, len(topos)*len(engine.Cases()))
	for _, label := range topos {
		for _, c := range engine.Cases() {
			a := aggs[label][c]
			cells = append(cells, PaperCell{
				Topology: label, Case: c, Networks: a.qco.N(),
				QT: a.qt.GeoMean(), QCut: a.qcut.GeoMean(), QCo: a.qco.GeoMean(),
				QCoGSD: a.qco.GeoStd().Mean,
			})
		}
	}
	return cells
}

// baseTimes returns the base-stage time behind each scenario's time
// quotient, indexed like r.Scenarios. A DRB scenario times its own base
// stage. Partitions are shared by every scenario of the same graph and
// PE count whose jobs use the same partition seeds — the same case, or
// any case in shared-partition mode — and the artifact cache lets only
// the first job of such a group partition while the others time a
// lookup. So a partitioning scenario's base time pools the group's
// computed repetitions: min of mins, max of maxes, mean weighted by
// PartitionsComputed. A group that computed nothing gets NaN.
func baseTimes(r *Results) []metrics.Triple {
	group := func(sc *ScenarioResult) string {
		key := fmt.Sprintf("%s|%d", sc.graphKey(r.Spec.Seed), sc.PEs)
		if !r.Spec.SharedPartition {
			key += "|" + sc.Case.String()
		}
		return key
	}
	type pool struct {
		min, sum, max float64
		n             int
	}
	pools := make(map[string]*pool)
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		if sc.Perf == nil || sc.Perf.PartitionsComputed == 0 {
			continue
		}
		b, n := sc.Perf.BaseSeconds, sc.Perf.PartitionsComputed
		p := pools[group(sc)]
		if p == nil {
			p = &pool{min: b.Min, max: b.Max}
			pools[group(sc)] = p
		}
		p.min, p.max = math.Min(p.min, b.Min), math.Max(p.max, b.Max)
		p.sum += b.Mean * float64(n)
		p.n += n
	}
	nan := math.NaN()
	out := make([]metrics.Triple, len(r.Scenarios))
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		p := pools[group(sc)]
		switch {
		case sc.Perf != nil && sc.Case == engine.C1SCOTCH:
			out[i] = sc.Perf.BaseSeconds
		case p != nil:
			out[i] = metrics.Triple{Min: p.min, Mean: p.sum / float64(p.n), Max: p.max}
		default:
			out[i] = metrics.Triple{Min: nan, Mean: nan, Max: nan}
		}
	}
	return out
}

// paperName returns the paper's name for the canonical spec of one of
// its five processor graphs ("grid:16x16" → "grid16x16") and any other
// spec unchanged.
func paperName(spec string) string {
	for _, pt := range topology.PaperTopologies() {
		if s, err := topology.ParseSpec(pt.String()); err == nil && s.String() == spec {
			return pt.String()
		}
	}
	return spec
}

// graphLabel names a scenario's graph in the tables: the network,
// suffixed "@scale" when generated at another scale than the matrix's,
// or the dataset cell's name.
func (sc *ScenarioResult) graphLabel(matrixScale float64) string {
	switch {
	case sc.File != "":
		return strings.TrimSuffix(sc.Name, "/"+sc.Topology+"/"+sc.Case.String())
	case sc.Scale != matrixScale:
		return fmt.Sprintf("%s@%g", sc.Network, sc.Scale)
	}
	return sc.Network
}

// writeTable1 prints the matrix's generated networks in the layout of
// the paper's Table 1, next to the sizes of the generated stand-ins.
func writeTable1(w io.Writer, r *Results) error {
	fmt.Fprintln(w, "Table 1: Complex networks used for benchmarking.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\tpaper #vertices\tpaper #edges\tgenerated #v\tgenerated #e\tmodel\tType")
	seen := make(map[string]bool)
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		spec, err := netgen.ByName(sc.Network)
		if err != nil || sc.Quality == nil || seen[sc.graphKey(r.Spec.Seed)] {
			continue // a dataset file, failed, or listed
		}
		seen[sc.graphKey(r.Spec.Seed)] = true
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\n", sc.graphLabel(r.Spec.Scale),
			spec.FullV, spec.FullE, sc.GraphN, sc.GraphM, spec.Model, spec.Type)
	}
	return tw.Flush()
}

// writeTable2 prints the running-time quotients in the layout of the
// paper's Table 2: one row per topology, one qT min/mean/max group per
// case.
func writeTable2(w io.Writer, cells []PaperCell) error {
	fmt.Fprintln(w, "Table 2: Running time quotients per experimental case.")
	fmt.Fprintln(w, "(c1 relative to the DRB/SCOTCH mapping time; c2-c4 relative to the partitioner.)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "topology")
	for _, c := range engine.Cases() {
		fmt.Fprintf(tw, "\t%s qTmin\tqTmean\tqTmax", c)
	}
	for _, cell := range cells {
		if cell.Case == engine.Cases()[0] {
			fmt.Fprint(tw, "\n"+cell.Topology)
		}
		if math.IsNaN(cell.QT.Mean) {
			fmt.Fprint(tw, "\t-\t-\t-")
		} else {
			fmt.Fprintf(tw, "\t%.4f\t%.4f\t%.4f", cell.QT.Min, cell.QT.Mean, cell.QT.Max)
		}
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// writeFigure5 prints one subfigure of Figure 5 (the quality results of
// one case): per topology, the geometric means of the Cut and Co
// quotients (min/mean/max) and the geometric standard deviation of Co.
func writeFigure5(w io.Writer, c engine.Case, cells []PaperCell) error {
	fmt.Fprintf(w, "Figure 5%c: quality quotients after TIMER on %s initial mappings.\n",
		'a'+rune(c-engine.C1SCOTCH), c)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tminCut\tCut\tmaxCut\tminCo\tCo\tmaxCo\tgsd(Co)")
	for _, cell := range cells {
		if cell.Case != c || cell.Networks == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\n",
			cell.Topology,
			cell.QCut.Min, cell.QCut.Mean, cell.QCut.Max,
			cell.QCo.Min, cell.QCo.Mean, cell.QCo.Max,
			cell.QCoGSD)
	}
	return tw.Flush()
}

// writeTable3 prints the partitioning times in the layout of the
// paper's Table 3 (appendix): per network, the mean base time (see
// baseTimes) of its IDENTITY scenarios on 256 and 512 PEs, "-" where
// there is none, then the columns' arithmetic and geometric means.
func writeTable3(w io.Writer, r *Results) error {
	base := baseTimes(r)
	times := make(map[string]*[2]float64)
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		if sc.Case != engine.C2Identity || (sc.PEs != 256 && sc.PEs != 512) {
			continue
		}
		name := sc.graphLabel(r.Spec.Scale)
		if times[name] == nil {
			times[name] = &[2]float64{math.NaN(), math.NaN()}
		}
		times[name][sc.PEs/512] = base[i].Mean // 256 → column 0, 512 → 1
	}
	names := make([]string, 0, len(times))
	for name := range times {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintln(w, "Table 3: partitioner running times (seconds) for |Vp| = 256 and 512.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\t|Vp|=256\t|Vp|=512")
	var cols [2][]float64
	for _, name := range names {
		t := times[name]
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, seconds(t[0]), seconds(t[1]))
		for k, s := range t {
			if !math.IsNaN(s) {
				cols[k] = append(cols[k], s)
			}
		}
	}
	fmt.Fprintf(tw, "Arithmetic mean\t%s\t%s\n", seconds(metrics.ArithMean(cols[0])), seconds(metrics.ArithMean(cols[1])))
	fmt.Fprintf(tw, "Geometric mean\t%s\t%s\n", seconds(metrics.GeoMean(cols[0])), seconds(metrics.GeoMean(cols[1])))
	return tw.Flush()
}

// seconds renders a Table 3 time, "-" where there is none.
func seconds(s float64) string {
	if math.IsNaN(s) {
		return "-"
	}
	return fmt.Sprintf("%.3f", s)
}
