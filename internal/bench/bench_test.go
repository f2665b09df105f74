package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// tinySpec is a matrix small enough for unit tests: one 128-vertex
// network on a 16-PE hypercube, two mappers, two reps.
func tinySpec() Spec {
	return Spec{
		Name:           "tiny",
		Networks:       []string{"p2p-Gnutella"},
		Scale:          0.02,
		Topologies:     []string{"hypercube:4"},
		Cases:          []string{"identity", "random"},
		Reps:           2,
		Seed:           7,
		NumHierarchies: 4,
	}
}

func runTiny(t *testing.T) *Results {
	t.Helper()
	res, err := Run(tinySpec(), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Failed != 0 {
		t.Fatalf("%d scenarios failed: %+v", res.Summary.Failed, res.Scenarios)
	}
	return res
}

// TestGoldenDeterminism is the harness's core guarantee: a fixed matrix
// and seed must produce byte-identical results (modulo the
// machine-dependent perf fields) across runs — otherwise the committed
// CI baseline could never gate anything.
func TestGoldenDeterminism(t *testing.T) {
	a, b := runTiny(t), runTiny(t)
	a.StripPerf()
	b.StripPerf()
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("two runs of the same matrix differ:\n--- run 1\n%s\n--- run 2\n%s", ab, bb)
	}
}

func TestRunFillsQualityAndPerf(t *testing.T) {
	res := runTiny(t)
	if len(res.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if sc.Quality == nil || sc.Perf == nil {
			t.Fatalf("%s: missing quality or perf", sc.Name)
		}
		if sc.Quality.CocoAfter.Mean > sc.Quality.CocoBefore.Mean {
			t.Errorf("%s: TIMER made Coco worse: %v -> %v", sc.Name, sc.Quality.CocoBefore, sc.Quality.CocoAfter)
		}
		if sc.Quality.ImbalanceAfter.Max > 1.04 {
			t.Errorf("%s: imbalance %v exceeds 1+eps", sc.Name, sc.Quality.ImbalanceAfter)
		}
		if sc.Quality.ImbalanceBefore != sc.Quality.ImbalanceAfter {
			t.Errorf("%s: TIMER changed balance: %v -> %v", sc.Name, sc.Quality.ImbalanceBefore, sc.Quality.ImbalanceAfter)
		}
		if len(sc.Perf.StageSeconds) == 0 {
			t.Errorf("%s: no per-stage timings in result", sc.Name)
		}
		if sc.Perf.TimerNsPerHierarchy.Mean <= 0 {
			t.Errorf("%s: timer ns/hierarchy = %v, want > 0", sc.Name, sc.Perf.TimerNsPerHierarchy)
		}
	}
	if res.Summary.GeoCocoQuotient <= 0 || res.Summary.GeoCocoQuotient > 1 {
		t.Errorf("geo Coco quotient %g outside (0, 1]", res.Summary.GeoCocoQuotient)
	}
	if res.Perf == nil || res.Perf.JobsPerSec <= 0 {
		t.Errorf("run perf missing or empty: %+v", res.Perf)
	}
	if res.Perf != nil && (res.Perf.NsPerJob <= 0 || res.Perf.BytesPerJob <= 0) {
		t.Errorf("per-job perf columns missing: %+v", res.Perf)
	}
}

// reencode deep-copies results through JSON, as the baseline gate sees
// them after a round trip through BENCH_baseline.json.
func reencode(t *testing.T, r *Results) *Results {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Results
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestCompareGate(t *testing.T) {
	base := runTiny(t)

	// Identical runs pass at zero tolerance.
	if d := Compare(base, reencode(t, base), 0); !d.OK() {
		t.Fatalf("identical runs flagged: %+v", d)
	}

	// A quality metric pushed beyond tolerance is a regression...
	worse := reencode(t, base)
	worse.Scenarios[0].Quality.CocoAfter.Mean *= 1.10
	d := Compare(base, worse, 0.05)
	if d.OK() || len(d.Regressions) == 0 {
		t.Fatalf("10%% Coco regression not caught at 5%% tolerance: %+v", d)
	}
	if d.Regressions[0].Metric != "coco_after.mean" {
		t.Errorf("regression metric = %q, want coco_after.mean", d.Regressions[0].Metric)
	}
	// ...but the same drift inside the tolerance is not.
	slight := reencode(t, base)
	slight.Scenarios[0].Quality.CocoAfter.Mean *= 1.01
	if d := Compare(base, slight, 0.05); !d.OK() {
		t.Errorf("1%% drift flagged at 5%% tolerance: %+v", d)
	}

	// A scenario that vanished (or failed) cannot silently pass.
	missing := reencode(t, base)
	missing.Scenarios = missing.Scenarios[1:]
	if d := Compare(base, missing, 0.05); d.OK() || len(d.Missing) != 1 {
		t.Errorf("missing scenario not flagged: %+v", d)
	}

	// Extra scenarios in the current run are growth, not regressions.
	grown := reencode(t, base)
	extra := grown.Scenarios[0]
	extra.Name = "extra/topo/case"
	grown.Scenarios = append(grown.Scenarios, extra)
	if d := Compare(base, grown, 0.05); !d.OK() {
		t.Errorf("grown matrix flagged: %+v", d)
	}
}

func TestExpandValidation(t *testing.T) {
	if _, _, err := (Spec{Name: "empty"}).Expand(); err == nil {
		t.Error("empty matrix expanded")
	}

	bad := tinySpec()
	bad.Cases = []string{"no-such-mapper"}
	if _, _, err := bad.Expand(); err == nil {
		t.Error("unknown case accepted")
	}

	dup := tinySpec()
	dup.Networks = []string{"p2p-Gnutella", "p2p-Gnutella"}
	if _, _, err := dup.Expand(); err == nil {
		t.Error("duplicate scenarios accepted")
	}

	// A 64-vertex instance on a 64-PE topology has no room to map; the
	// cell must be skipped, not failed.
	small := tinySpec()
	small.Scale = 0.001 // clamps to the 64-vertex floor
	small.Topologies = []string{"hypercube:6", "hypercube:4"}
	scs, skipped, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != len(small.Cases) {
		t.Errorf("skipped = %d, want %d", skipped, len(small.Cases))
	}
	for _, sc := range scs {
		if sc.Topology == "hypercube:6" {
			t.Errorf("too-small cell %s not skipped", sc.Name)
		}
	}
}

func TestCanonicalMatricesExpand(t *testing.T) {
	for _, m := range Matrices() {
		scs, _, err := m.Expand()
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if len(scs) == 0 {
			t.Errorf("%s: no scenarios", m.Name)
		}
	}
}

// TestExtraCells: explicit cells expand with their own scale, inherit
// the matrix scale when unset, skip too-small instances, and collide
// loudly with cross-product names.
func TestExtraCells(t *testing.T) {
	s := tinySpec()
	s.ExtraCells = []Cell{
		{Network: "PGPgiantcompo", Scale: 0.5, Topology: "torus:4x4", Case: "greedymin"},
		{Network: "PGPgiantcompo", Topology: "grid:4x4", Case: "identity"},                 // inherits Scale 0.02
		{Network: "p2p-Gnutella", Scale: 0.001, Topology: "hypercube:6", Case: "identity"}, // 64-vertex floor: too small
	}
	scs, skipped, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the too-small cell)", skipped)
	}
	byName := make(map[string]Scenario, len(scs))
	for _, sc := range scs {
		byName[sc.Name] = sc
	}
	half, ok := byName["PGPgiantcompo/torus:4x4/GREEDYMIN"]
	if !ok || half.Scale != 0.5 {
		t.Errorf("explicit-scale cell = %+v, want scale 0.5", half)
	}
	inherit, ok := byName["PGPgiantcompo/grid:4x4/IDENTITY"]
	if !ok || inherit.Scale != 0.02 {
		t.Errorf("inherited-scale cell = %+v, want the matrix scale 0.02", inherit)
	}

	dup := tinySpec()
	dup.ExtraCells = []Cell{{Network: "p2p-Gnutella", Topology: "hypercube:4", Case: "identity"}}
	if _, _, err := dup.Expand(); err == nil {
		t.Error("cell duplicating a cross-product scenario accepted")
	}

	bad := tinySpec()
	bad.ExtraCells = []Cell{{Network: "p2p-Gnutella", Topology: "hypercube:4", Case: "no-such"}}
	if _, _, err := bad.Expand(); err == nil {
		t.Error("cell with unknown case accepted")
	}

	// Out-of-range scales fail loudly rather than silently inheriting:
	// the scenario name does not encode scale, so a typo like 1.5 would
	// otherwise measure the wrong workload unnoticed.
	for _, wrong := range []float64{1.5, -0.5} {
		badScale := tinySpec()
		badScale.ExtraCells = []Cell{{Network: "PGPgiantcompo", Scale: wrong, Topology: "grid:4x4", Case: "identity"}}
		if _, _, err := badScale.Expand(); err == nil {
			t.Errorf("cell with scale %g accepted", wrong)
		}
	}

	// The smoke matrix carries the larger-scale rows.
	smoke, _, err := Smoke().Expand()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, sc := range smoke {
		if sc.Topology == "grid:32x32" || sc.Topology == "torus:16x16" {
			if sc.Scale != 0.5 {
				t.Errorf("%s: scale %g, want 0.5", sc.Name, sc.Scale)
			}
			found++
		}
	}
	if found != 2 {
		t.Errorf("smoke has %d larger-scale rows, want 2", found)
	}
}
