// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7). Each benchmark runs a small explicit
// bench.Spec — three Table 1 networks shrunk to CI size, one
// repetition, a small NH — through bench.Run and reports the headline
// quantities of the corresponding table or figure as custom benchmark
// metrics, so `go test -bench=.` doubles as a smoke reproduction.
// `mapbench -full -report` renders the full tables with paper-sized
// parameters.
//
// Metric naming: qCo_* is the geometric-mean Coco quotient after/before
// TIMER per topology (< 1 means TIMER improved the mapping), qT_mean the
// time quotient vs the baseline averaged over topologies, s_k*_total
// the summed partitioning seconds of Table 3's columns.
package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

// benchSpec is the reduced-scale paper matrix behind the table and
// figure benchmarks: three networks of different generator families
// that outsize the 512-PE topologies at this scale.
func benchSpec(topologies []string, cases ...string) bench.Spec {
	return bench.Spec{
		Name:           "paper-bench",
		Networks:       []string{"citationCiteseer", "coAuthorsDBLP", "as-skitter"},
		Scale:          0.004,
		Topologies:     topologies,
		Cases:          cases,
		Reps:           1,
		Seed:           1,
		NumHierarchies: 5,
	}
}

// runBenchSpec runs the matrix b.N times and returns the last results.
func runBenchSpec(b *testing.B, spec bench.Spec) *bench.Results {
	b.Helper()
	var res *bench.Results
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = bench.Run(spec, bench.RunOptions{}); err != nil {
			b.Fatal(err)
		}
		if res.Summary.Failed > 0 {
			b.Fatalf("%d scenarios failed", res.Summary.Failed)
		}
	}
	return res
}

// BenchmarkTable1NetworkSuite regenerates Table 1: the 15-network suite.
func BenchmarkTable1NetworkSuite(b *testing.B) {
	b.ReportAllocs()
	var totalV, totalE int
	for i := 0; i < b.N; i++ {
		suite := netgen.GenerateSuite(netgen.SuiteOption{Scale: 0.004, Seed: int64(i)})
		if len(suite) != 15 {
			b.Fatalf("suite has %d networks, want 15", len(suite))
		}
		totalV, totalE = 0, 0
		for _, inst := range suite {
			totalV += inst.G.N()
			totalE += inst.G.M()
		}
	}
	b.ReportMetric(float64(totalV), "vertices")
	b.ReportMetric(float64(totalE), "edges")
}

// runCells runs the matrix and returns its Table 2 / Figure 5 cells
// that hold scenarios.
func runCells(b *testing.B, spec bench.Spec) []bench.PaperCell {
	b.Helper()
	var cells []bench.PaperCell
	for _, c := range bench.PaperCells(runBenchSpec(b, spec)) {
		if c.Networks > 0 {
			cells = append(cells, c)
		}
	}
	return cells
}

// meanQT averages the cells' mean time quotients (Table 2's columns).
func meanQT(cells []bench.PaperCell) float64 {
	var sum float64
	for _, c := range cells {
		sum += c.QT.Mean
	}
	return sum / float64(len(cells))
}

// benchCase runs one experimental case over the reduced matrix and
// reports the per-topology Coco quotients (the content of one Figure 5
// subplot) plus the case's time quotient (one column group of Table 2).
func benchCase(b *testing.B, c string) {
	b.Helper()
	cells := runCells(b, benchSpec(bench.Paper().Topologies, c))
	for _, cell := range cells {
		b.ReportMetric(cell.QCo.Mean, "qCo_"+cell.Topology)
	}
	b.ReportMetric(meanQT(cells), "qT_mean")
}

// BenchmarkFigure5a_SCOTCH regenerates Figure 5a (case c1: TIMER on DRB
// initial mappings) and the c1 columns of Table 2.
func BenchmarkFigure5a_SCOTCH(b *testing.B) { benchCase(b, "scotch") }

// BenchmarkFigure5b_Identity regenerates Figure 5b (case c2).
func BenchmarkFigure5b_Identity(b *testing.B) { benchCase(b, "identity") }

// BenchmarkFigure5c_GreedyAllC regenerates Figure 5c (case c3).
func BenchmarkFigure5c_GreedyAllC(b *testing.B) { benchCase(b, "greedyallc") }

// BenchmarkFigure5d_GreedyMin regenerates Figure 5d (case c4).
func BenchmarkFigure5d_GreedyMin(b *testing.B) { benchCase(b, "greedymin") }

// BenchmarkTable2RuntimeQuotients regenerates Table 2 across all four
// cases (this is the full evaluation; the figure benchmarks above cover
// its per-case columns individually).
func BenchmarkTable2RuntimeQuotients(b *testing.B) {
	p := bench.Paper()
	b.ReportMetric(meanQT(runCells(b, benchSpec(p.Topologies, p.Cases...))), "qT_mean")
}

// BenchmarkTable3PartitionTimes regenerates Table 3: partitioning times
// of the IDENTITY case at |Vp| = 256 and 512. Each PE count has one
// topology, so every scenario computes its own partitions.
func BenchmarkTable3PartitionTimes(b *testing.B) {
	res := runBenchSpec(b, benchSpec([]string{"grid:16x16", "grid:8x8x8"}, "identity"))
	var sum256, sum512 float64
	for _, sc := range res.Scenarios {
		if sc.PEs == 256 {
			sum256 += sc.Perf.BaseSeconds.Mean
		} else {
			sum512 += sc.Perf.BaseSeconds.Mean
		}
	}
	b.ReportMetric(sum256, "s_k256_total")
	b.ReportMetric(sum512, "s_k512_total")
}

// BenchmarkTimerEnhance measures TIMER alone (one hierarchy batch per
// topology) on a fixed network — the core algorithm's throughput,
// O(NH·|Ea|·dimGa).
func BenchmarkTimerEnhance(b *testing.B) {
	ga := netgen.Generate(netgen.RMAT, 4000, 16000, 7)
	for _, pt := range topology.PaperTopologies() {
		topo := pt.MustBuild()
		part, err := partition.Partition(ga, partition.Config{K: topo.P(), Epsilon: 0.03, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		assign := MapIdentity(part.Part)
		b.Run(topo.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Enhance(ga, topo, assign, TimerOptions{NumHierarchies: 5, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineTopologyCache measures one mapping job through the
// engine with a cold topology cache (fresh engine per iteration, the
// labeling is rebuilt every time) versus a warm one (shared engine, the
// labeling is built once) — the latency win the engine's shared cache
// buys every request after the first.
func BenchmarkEngineTopologyCache(b *testing.B) {
	spec := engine.JobSpec{
		Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology:       "torus:16x16",
		Case:           engine.C2Identity,
		Seed:           42,
		NumHierarchies: 3,
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Workers: 1})
			if _, err := eng.Run(spec); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := engine.New(engine.Options{Workers: 1})
		defer eng.Close()
		if _, err := eng.Topology(spec.Topology); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(spec); err != nil {
				b.Fatal(err)
			}
		}
		hits, misses := eng.Cache().Stats()
		b.ReportMetric(float64(hits)/float64(b.N), "cache_hits/op")
		b.ReportMetric(float64(misses)/float64(b.N), "cache_misses/op")
	})
}

// BenchmarkPartitioner measures the KaHIP-substitute partitioner at the
// paper's block counts (the denominator of Table 2's quotients).
func BenchmarkPartitioner(b *testing.B) {
	ga := netgen.Generate(netgen.RMAT, 6000, 24000, 9)
	for _, k := range []int{256, 512} {
		b.Run(map[int]string{256: "k256", 512: "k512"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Partition(ga, partition.Config{K: k, Epsilon: 0.03, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
