// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - the diversity term Div in the objective (paper Section 5),
//   - random vs fixed hierarchy permutations (Section 6),
//   - the number of hierarchies NH (the paper's quality/time dial),
//   - matching vs label-propagation coarsening in the partitioner.
//
// Each benchmark reports the achieved Coco quotient as a custom metric
// so `go test -bench=Ablation` prints a small ablation study.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/netgen"
	"repro/internal/partition"
)

// ablationInstance prepares a fixed network + topology + initial
// mapping shared by the TIMER ablations.
func ablationInstance(b *testing.B) (*Graph, *Topology, []int32, int64) {
	b.Helper()
	ga := netgen.Generate(netgen.RMAT, 3000, 12000, 21)
	topo, err := Grid(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	part, err := Partition(ga, topo.P(), 0.03, 21)
	if err != nil {
		b.Fatal(err)
	}
	assign := MapIdentity(part.Part)
	return ga, topo, assign, Coco(ga, assign, topo)
}

func runTimerAblation(b *testing.B, opt TimerOptions) {
	b.Helper()
	ga, topo, assign, before := ablationInstance(b)
	var after int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		res, err := Enhance(ga, topo, assign, opt)
		if err != nil {
			b.Fatal(err)
		}
		after = res.CocoAfter
	}
	b.ReportMetric(float64(after)/float64(before), "qCo")
}

// BenchmarkAblationBaseline is full TIMER at NH=10 (reference point).
func BenchmarkAblationBaseline(b *testing.B) {
	runTimerAblation(b, TimerOptions{NumHierarchies: 10})
}

// BenchmarkAblationNoDiv drops the diversity term (objective = Coco).
func BenchmarkAblationNoDiv(b *testing.B) {
	runTimerAblation(b, TimerOptions{NumHierarchies: 10, DisableDiv: true})
}

// BenchmarkAblationFixedPerms replaces random permutations by the two
// opposite fixed hierarchies of Figure 2.
func BenchmarkAblationFixedPerms(b *testing.B) {
	runTimerAblation(b, TimerOptions{NumHierarchies: 10, FixedPermutations: true})
}

// BenchmarkAblationSwapRounds strengthens the per-level local search by
// iterating the sibling-swap pass to convergence (the paper's
// conclusion suggests a stronger local search as future work).
func BenchmarkAblationSwapRounds(b *testing.B) {
	runTimerAblation(b, TimerOptions{NumHierarchies: 10, SwapRounds: 4})
}

// BenchmarkAblationNH sweeps the hierarchy budget — the paper's main
// quality/time tradeoff (it uses 50 and notes 10 is often enough).
func BenchmarkAblationNH(b *testing.B) {
	for _, nh := range []int{1, 5, 10, 25, 50} {
		b.Run(fmt.Sprintf("NH%d", nh), func(b *testing.B) {
			runTimerAblation(b, TimerOptions{NumHierarchies: nh})
		})
	}
}

// BenchmarkAblationCoarsening compares the partitioner's coarsening
// schemes on a complex network (matching vs label-propagation clusters).
func BenchmarkAblationCoarsening(b *testing.B) {
	ga := netgen.Generate(netgen.RMAT, 6000, 30000, 23)
	for _, scheme := range []partition.CoarseningScheme{partition.MatchingCoarsening, partition.ClusterCoarsening} {
		b.Run(scheme.String(), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				res, err := partition.Partition(ga, partition.Config{
					K: 256, Epsilon: 0.03, Seed: int64(i + 1), Coarsening: scheme,
				})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkAblationVCycles measures the partitioner's iterated
// multilevel option: extra V-cycles trade time for cut quality.
func BenchmarkAblationVCycles(b *testing.B) {
	ga := netgen.Generate(netgen.BA, 5000, 20000, 27)
	for _, vc := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("V%d", vc), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				res, err := partition.Partition(ga, partition.Config{
					K: 64, Epsilon: 0.03, Seed: int64(i + 1), VCycles: vc,
				})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}
