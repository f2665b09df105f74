package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
)

func tri(x float64) metrics.Triple { return metrics.Triple{Min: x, Mean: x, Max: x} }

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// synth builds a finished scenario of a synthetic run at scale 0.1 for
// the renderer tests.
func synth(network, topo string, pes int, c engine.Case, base, timer metrics.Triple, computed int) ScenarioResult {
	return ScenarioResult{
		Scenario: Scenario{Name: network + "/" + topo + "/" + c.String(), Network: network, Scale: 0.1, Topology: topo, Case: c},
		PEs:      pes, GraphN: 1000, GraphM: 4000, Reps: 2,
		Quality: &Quality{CutQuotient: tri(1.05), CocoQuotient: tri(0.9)},
		Perf:    &Perf{BaseSeconds: base, TimerSeconds: timer, PartitionsComputed: computed},
	}
}

func synthResults(scenarios ...ScenarioResult) *Results {
	return &Results{Spec: Spec{Scale: 0.1, Seed: 1}, Scenarios: scenarios}
}

func TestAggregateGeoMean(t *testing.T) {
	a := synth("p2p-Gnutella", "grid:16x16", 256, engine.C2Identity, tri(1), tri(2), 2)
	a.Quality.CocoQuotient = tri(0.5)
	b := synth("PGPgiantcompo", "grid:16x16", 256, engine.C2Identity, tri(1), tri(8), 2)
	b.Quality.CocoQuotient = tri(0.125)
	cells := PaperCells(synthResults(a, b))
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want one per case: %+v", len(cells), cells)
	}
	c := cells[1]
	if c.Topology != "grid16x16" || c.Case != engine.C2Identity || c.Networks != 2 {
		t.Errorf("cell = %s/%s over %d networks, want grid16x16/IDENTITY over 2", c.Topology, c.Case, c.Networks)
	}
	if !approx(c.QT.Mean, 4) {
		t.Errorf("qT geomean = %v, want 4", c.QT)
	}
	if !approx(c.QCo.Mean, 0.25) {
		t.Errorf("qCo geomean = %v, want 0.25", c.QCo)
	}
}

// TestPooledBaseTime pins the Table 2/3 denominator of partitioning
// cases: scenarios sharing a graph, PE count and case pool their
// computed repetitions, because the artifact cache lets only one of
// them partition.
func TestPooledBaseTime(t *testing.T) {
	const net = "p2p-Gnutella"
	r := synthResults(
		synth(net, "grid:8x8", 64, engine.C2Identity, metrics.Triple{Min: 2, Mean: 3, Max: 4}, tri(12), 2),
		synth(net, "hypercube:6", 64, engine.C2Identity, tri(6), tri(12), 1),
		synth(net, "torus:8x8", 64, engine.C2Identity, metrics.Triple{}, tri(12), 0),
		synth(net, "grid:8x8", 64, engine.C3GreedyAllC, metrics.Triple{}, tri(12), 0),
		synth(net, "grid:8x8", 64, engine.C1SCOTCH, tri(3), tri(12), 0),
	)
	// min of mins, max of maxes, mean weighted by PartitionsComputed:
	// (3·2 + 6·1) / 3 = 4.
	pooled := metrics.Triple{Min: 2, Mean: 4, Max: 6}
	base := baseTimes(r)
	for i := 0; i < 3; i++ {
		if base[i] != pooled {
			t.Errorf("%s: base %v, want pooled %v", r.Scenarios[i].Name, base[i], pooled)
		}
	}
	if !math.IsNaN(base[3].Mean) {
		t.Errorf("GREEDYALLC computed no partition but got base %v, want NaN", base[3])
	}
	if base[4] != tri(3) {
		t.Errorf("SCOTCH base %v, want its own DRB time %v", base[4], tri(3))
	}
	for _, c := range PaperCells(r) {
		switch c.Case {
		case engine.C2Identity:
			if !approx(c.QT.Min, 6) || !approx(c.QT.Mean, 3) || !approx(c.QT.Max, 2) {
				t.Errorf("%s IDENTITY qT %v, want 12 s over the pooled base: 6, 3, 2", c.Topology, c.QT)
			}
		case engine.C3GreedyAllC:
			if !math.IsNaN(c.QT.Mean) {
				t.Errorf("GREEDYALLC qT %v, want NaN", c.QT)
			}
		}
	}
	var buf bytes.Buffer
	if err := writeTable2(&buf, PaperCells(r)); err != nil {
		t.Fatal(err)
	}
	if row := lineWith(buf.String(), "grid:8x8"); len(strings.Fields(row)) != 13 || strings.Count(row, "-") != 6 {
		t.Errorf("grid:8x8 row %q: want 12 qT cells, the GREEDYALLC and GREEDYMIN groups as -", row)
	}

	// In shared-partition mode the cases of a rep share one partition,
	// so the GREEDYALLC scenario draws on the IDENTITY pool.
	r.Spec.SharedPartition = true
	if got := baseTimes(r)[3]; got != pooled {
		t.Errorf("shared mode: GREEDYALLC base %v, want pooled %v", got, pooled)
	}
}

// TestBaseTimesSkipReusedPartitions runs IDENTITY on grid:8x8 and
// hypercube:6. Both have 64 PEs, so one scenario of each network
// partitions and the other is served from the artifact cache; the
// latter must not report the cache lookup as a base time.
func TestBaseTimesSkipReusedPartitions(t *testing.T) {
	spec := Spec{
		Name:           "reuse",
		Networks:       []string{"p2p-Gnutella", "PGPgiantcompo"},
		Scale:          0.05,
		Topologies:     []string{"grid:8x8", "hypercube:6"},
		Cases:          []string{"identity"},
		Reps:           1,
		Seed:           3,
		NumHierarchies: 2,
	}
	res, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	computed := make(map[string]int)
	for _, sc := range res.Scenarios {
		if sc.Perf == nil {
			t.Fatalf("%s failed: %s", sc.Name, sc.Error)
		}
		computed[sc.Network] += sc.Perf.PartitionsComputed
		if sc.Perf.PartitionsComputed == 0 && (sc.Perf.BaseSeconds != metrics.Triple{} || sc.Perf.BaseNsPerJob != metrics.Triple{}) {
			t.Errorf("%s computed no partition but reports base_seconds %v, base_ns_per_job %v",
				sc.Name, sc.Perf.BaseSeconds, sc.Perf.BaseNsPerJob)
		}
	}
	for _, net := range spec.Networks {
		if computed[net] != spec.Reps {
			t.Errorf("%s: %d partitions computed across its topologies, want %d", net, computed[net], spec.Reps)
		}
	}
	for _, c := range PaperCells(res) {
		if c.Case == engine.C2Identity && (math.IsNaN(c.QT.Mean) || math.IsInf(c.QT.Mean, 0)) {
			t.Errorf("%s/%s: qT %v not finite", c.Topology, c.Case, c.QT)
		}
	}
}

func TestReportWriters(t *testing.T) {
	var scs []ScenarioResult
	for _, c := range engine.Cases() {
		scs = append(scs,
			synth("p2p-Gnutella", "grid:16x16", 256, c, tri(0.5), tri(1), 2),
			synth("p2p-Gnutella", "grid:8x8x8", 512, c, tri(0.7), tri(1), 2),
			// Too small for 512 PEs: the matrix expanded no such cell.
			synth("PGPgiantcompo", "grid:16x16", 256, c, tri(0.25), tri(1), 2),
		)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, synthResults(scs...)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3",
		"Figure 5a", "Figure 5b", "Figure 5c", "Figure 5d",
		"Geometric mean", "grid16x16", "grid8x8x8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if row := lineWith(out, "6405"); !strings.HasPrefix(row, "p2p-Gnutella") {
		t.Errorf("Table 1 lacks p2p-Gnutella's paper size: %q", row)
	}
	if got := strings.Fields(lineWith(out, "PGPgiantcompo  ")); len(got) != 3 || got[1] != "0.250" || got[2] != "-" {
		t.Errorf("Table 3 row %q, want PGPgiantcompo 0.250 -", got)
	}
	if got := strings.Fields(lineWith(out, "p2p-Gnutella  ")); len(got) < 3 || got[1] != "0.500" || got[2] != "0.700" {
		t.Errorf("Table 3 row %q, want p2p-Gnutella 0.500 0.700", got)
	}
}

// lineWith returns the last line of s that contains sub.
func lineWith(s, sub string) string {
	var found string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			found = line
		}
	}
	return found
}

// TestPaperReportEndToEnd renders a tiny paper-shaped matrix: every
// case × topology cell must come out with a finite time quotient.
func TestPaperReportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 jobs on 256- and 512-PE topologies")
	}
	spec := Spec{
		Name:           "paper-tiny",
		Networks:       []string{"loc-gowalla_edges", "coAuthorsCiteseer"},
		Scale:          0.004,
		Topologies:     []string{"grid:16x16", "hypercube:8", "grid:8x8x8"},
		Cases:          []string{"scotch", "identity", "greedyallc", "greedymin"},
		Reps:           1,
		Seed:           1,
		NumHierarchies: 2,
	}
	res, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Failed != 0 || res.Summary.Skipped != 0 {
		t.Fatalf("%d scenarios failed, %d skipped", res.Summary.Failed, res.Summary.Skipped)
	}
	cells := PaperCells(res)
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 3 topologies × 4 cases", len(cells))
	}
	for _, c := range cells {
		if c.Networks != 2 {
			t.Errorf("%s/%s folds %d networks, want 2", c.Topology, c.Case, c.Networks)
		}
		for _, q := range []float64{c.QT.Min, c.QT.Mean, c.QT.Max} {
			if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
				t.Errorf("%s/%s: qT %v not finite and positive", c.Topology, c.Case, c.QT)
				break
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	table2 := buf.String()[:strings.Index(buf.String(), "Figure 5a")]
	for _, topo := range []string{"grid16x16", "8-dimHQ", "grid8x8x8"} {
		row := strings.Fields(lineWith(table2, topo))
		if len(row) != 13 || strings.Contains(strings.Join(row[1:], " "), "-") {
			t.Errorf("Table 2 row for %s = %q, want 12 qT values", topo, row)
		}
	}
	for _, net := range spec.Networks {
		if row := strings.Fields(lineWith(buf.String(), net+"  ")); len(row) != 3 || row[1] == "-" || row[2] == "-" {
			t.Errorf("Table 3 row %q, want partition times at 256 and 512 PEs", row)
		}
	}
}
