package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRowsDerivedSeeds pins the partition sharing -list reveals. The
// seed values themselves are the engine's batch algebra, pinned by its
// own tests.
func TestRowsDerivedSeeds(t *testing.T) {
	spec := tinySpec() // 1 network × 1 topology × 2 cases × 2 reps
	rows, skipped, err := Rows(spec)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(rows) != 4 {
		t.Fatalf("got %d rows (%d skipped), want 4 (0 skipped)", len(rows), skipped)
	}
	seen := make(map[int64]bool)
	for _, r := range rows {
		if seen[r.Seed] {
			t.Errorf("%s rep %d: seed %d repeats another row's", r.Name, r.Rep, r.Seed)
		}
		seen[r.Seed] = true
		if r.PartitionSeed != r.Seed {
			t.Errorf("%s rep %d: default mode partition seed %d != job seed %d", r.Name, r.Rep, r.PartitionSeed, r.Seed)
		}
		if want := "p2p-Gnutella@0.02#7"; r.GraphKey != want {
			t.Errorf("graph key %q, want %q", r.GraphKey, want)
		}
	}

	spec.SharedPartition = true
	shared, _, err := Rows(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range shared {
		if r.Seed != rows[i].Seed {
			t.Errorf("%s rep %d: shared mode changed the job seed %d -> %d", r.Name, r.Rep, rows[i].Seed, r.Seed)
		}
	}
	// The sharing structure -list exists to reveal: within a rep, all
	// cases agree on the partition seed; across reps they differ.
	if shared[0].PartitionSeed != shared[2].PartitionSeed {
		t.Error("rep 0 of both cases should share one partition seed")
	}
	if shared[0].PartitionSeed == shared[1].PartitionSeed {
		t.Error("reps 0 and 1 must not share a partition seed")
	}
}

// TestSharedPartitionRun exercises the paper-faithful mode end to end:
// partitions are reused across the cases of a rep, the artifact
// hit-rate column is populated, and the mode is as deterministic as the
// default one.
func TestSharedPartitionRun(t *testing.T) {
	run := func() *Results {
		t.Helper()
		spec := tinySpec()
		spec.SharedPartition = true
		res, err := Run(spec, RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Failed != 0 {
			t.Fatalf("%d scenarios failed: %+v", res.Summary.Failed, res.Scenarios)
		}
		return res
	}
	a := run()
	if !a.Spec.SharedPartition {
		t.Error("results spec does not record shared-partition mode")
	}
	// 2 cases × 2 reps on one (graph, K): per rep one compute + one
	// reuse.
	if a.Perf.PartitionsComputed != 2 || a.Perf.PartitionsReused != 2 {
		t.Errorf("partitions computed/reused = %d/%d, want 2/2",
			a.Perf.PartitionsComputed, a.Perf.PartitionsReused)
	}
	if a.Perf.ArtifactHitRate <= 0 {
		t.Errorf("artifact hit rate %g, want > 0", a.Perf.ArtifactHitRate)
	}
	// Both cases of a rep computed on one partition ⇒ identical
	// pre-enhancement cut (a partition property, placement-independent).
	if a.Scenarios[0].Quality.CutBefore != a.Scenarios[1].Quality.CutBefore {
		t.Errorf("cut_before differs across cases sharing a partition: %+v vs %+v",
			a.Scenarios[0].Quality.CutBefore, a.Scenarios[1].Quality.CutBefore)
	}
	b := run()
	a.StripPerf()
	b.StripPerf()
	ab, _ := a.Encode()
	bb, _ := b.Encode()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("shared-partition runs are not deterministic:\n--- run 1\n%s\n--- run 2\n%s", ab, bb)
	}
}

// TestDefaultRunReportsPartitionColumns pins the default mode's view of
// the new columns: partitions still get computed (cross-topology
// coalescing aside, this matrix has one topology, so every rep
// computes) and the scenario-level split sums to the run-level one.
func TestDefaultRunReportsPartitionColumns(t *testing.T) {
	res := runTiny(t)
	if res.Perf.PartitionsComputed == 0 {
		t.Error("default run reports no computed partitions")
	}
	sumC, sumR := 0, 0
	for _, sc := range res.Scenarios {
		sumC += sc.Perf.PartitionsComputed
		sumR += sc.Perf.PartitionsReused
	}
	if sumC != res.Perf.PartitionsComputed || sumR != res.Perf.PartitionsReused {
		t.Errorf("scenario split %d/%d does not sum to run split %d/%d",
			sumC, sumR, res.Perf.PartitionsComputed, res.Perf.PartitionsReused)
	}
}

func TestSmokeSharedMatrix(t *testing.T) {
	s := SmokeShared()
	if !s.SharedPartition {
		t.Error("smoke-shared is not in shared-partition mode")
	}
	base := Smoke()
	if s.Seed != base.Seed || s.Reps != base.Reps || len(s.Networks) != len(base.Networks) {
		t.Error("smoke-shared diverged from the smoke grid; the two must stay comparable")
	}
	if _, _, err := s.Expand(); err != nil {
		t.Fatal(err)
	}
}

// TestCompareRejectsModeMismatch pins the gate's mode guard: shared-
// partition results and default results carry identical scenario
// names, so comparing across modes must fail loudly instead of
// producing a plausible-looking pass/fail on incomparable numbers.
func TestCompareRejectsModeMismatch(t *testing.T) {
	def := runTiny(t)
	spec := tinySpec()
	spec.SharedPartition = true
	shared, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(def, shared, 0.05)
	if d.OK() {
		t.Fatal("gating shared-mode results against a default baseline passed")
	}
	if len(d.Missing) != 1 || !strings.Contains(d.Missing[0], "mode mismatch") {
		t.Errorf("diff = %+v, want a single mode-mismatch entry", d)
	}
	if d.Compared != 0 {
		t.Errorf("compared %d metrics across modes, want 0", d.Compared)
	}
	// Same mode on both sides still gates normally.
	if d := Compare(def, runTiny(t), 0); !d.OK() {
		t.Errorf("default-vs-default gate failed: %+v", d)
	}
}
