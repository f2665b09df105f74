package engine

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestSharedPartitionBatch runs the paper-shaped comparison — every
// case on one (graph, topology, rep) — in SharedPartition mode and
// checks (a) all partition-based cases of a rep really computed on one
// partition (the artifact cache reports exactly one build per rep),
// (b) the DRB case is untouched, and (c) in the default mode a rerun
// served from the cache is byte-identical to a fresh engine's run.
func TestSharedPartitionBatch(t *testing.T) {
	batch := func(shared bool) BatchSpec {
		return BatchSpec{
			Graphs:          []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}},
			Topologies:      []string{"grid:4x4"},
			Reps:            2,
			Seed:            5,
			NumHierarchies:  2,
			SharedPartition: shared,
		}
	}
	runCases := func(e *Engine, shared bool) map[string][]*JobResult {
		out := make(map[string][]*JobResult)
		for _, c := range Cases() {
			b := batch(shared)
			b.Case = c
			jobs, err := e.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if j.Status != StatusDone {
					t.Fatalf("%s: job %s: %s", c, j.ID, j.Error)
				}
				out[c.String()] = append(out[c.String()], j.Result)
			}
		}
		return out
	}

	eShared := New(Options{Workers: 2})
	defer eShared.Close()
	shared := runCases(eShared, true)

	// One partition build per rep: the three partition-based cases (c2,
	// c3, c4) × 2 reps are 6 partition stages served by 2 builds. The
	// graph artifact is built once for all 8 jobs.
	st := eShared.Stats().Artifacts
	if st == nil {
		t.Fatal("artifact stats missing with the cache enabled")
	}
	partBuilds := st.Misses - 1 // one miss is the graph artifact
	if partBuilds != 2 {
		t.Errorf("shared mode computed %d partitions for 2 reps, want 2 (stats %+v)", partBuilds, st)
	}
	reusedJobs := 0
	for _, c := range []string{"IDENTITY", "GREEDYALLC", "GREEDYMIN"} {
		for _, r := range shared[c] {
			if r.PartitionReused {
				reusedJobs++
			}
		}
	}
	if reusedJobs != 4 {
		t.Errorf("%d jobs report partition reuse, want 4 (3 cases x 2 reps minus 2 builds)", reusedJobs)
	}
	for _, r := range shared["SCOTCH"] {
		if r.PartitionReused {
			t.Error("DRB (c1) job reports partition reuse; it has no partition stage")
		}
	}
	// Same partition ⇒ identical pre-enhancement cut for c2–c4 of a rep
	// (the cut is a partition property, independent of block→PE
	// placement).
	for rep := 0; rep < 2; rep++ {
		c2 := shared["IDENTITY"][rep]
		for _, c := range []string{"GREEDYALLC", "GREEDYMIN"} {
			if got := shared[c][rep].CutBefore; got != c2.CutBefore {
				t.Errorf("rep %d: %s cut_before %d != IDENTITY's %d — partitions not shared", rep, c, got, c2.CutBefore)
			}
		}
	}

	// Default mode must not care whether a stage was served from the
	// cache: a rerun on a warm engine, whose partitions all come from the
	// cache, is byte-identical to a fresh engine's run.
	eFresh := New(Options{Workers: 2})
	defer eFresh.Close()
	fresh := runCases(eFresh, false)
	rerun := runCases(eFresh, false)
	for c, rs := range fresh {
		for rep, r := range rs {
			o := rerun[c][rep]
			if r.PartitionReused || c != "SCOTCH" && !o.PartitionReused {
				t.Errorf("%s rep %d: partition reused %v on the fresh run, %v on the rerun; want false, true",
					c, rep, r.PartitionReused, o.PartitionReused)
			}
			if got, want := o.StripPerf(), r.StripPerf(); !reflect.DeepEqual(got, want) {
				t.Errorf("cached rerun diverges from the fresh run: %s rep %d:\n%+v\nvs\n%+v", c, rep, got, want)
			}
		}
	}
	// In default mode the per-case seed spreading must keep partitions
	// distinct (cut_before almost surely differs across cases).
	if fresh["IDENTITY"][0].CutBefore == fresh["GREEDYALLC"][0].CutBefore &&
		fresh["IDENTITY"][1].CutBefore == fresh["GREEDYALLC"][1].CutBefore {
		t.Error("default mode looks like it shared partitions across cases")
	}
}

func TestSharedPartitionSeedAlgebra(t *testing.T) {
	for rep := 0; rep < 3; rep++ {
		if got, want := sharedPartitionSeed(9, rep), batchSeed(9, rep, C1SCOTCH); got != want {
			t.Errorf("rep %d: sharedPartitionSeed = %d, want batchSeed(c1) = %d", rep, got, want)
		}
	}
}

// TestWaitCtxCancel covers the mapd-handler shape: a client that
// disconnects mid-job must get its wait released promptly while the job
// keeps running to completion.
func TestWaitCtxCancel(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	// A job big enough to still be running when the canceled wait returns.
	job, err := e.Submit(JobSpec{
		Graph:          GraphSpec{Network: "PGPgiantcompo", Scale: 0.25, Seed: 1},
		Topology:       "grid:8x8",
		NumHierarchies: 8,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.WaitCtx(ctx, job.ID); err != context.Canceled {
		t.Fatalf("WaitCtx on canceled context = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("canceled WaitCtx took %v to return", waited)
	}
	// The abandoned job still finishes and stays waitable.
	done, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job after abandoned wait: %s (%s)", done.Status, done.Error)
	}
	if _, err := e.WaitCtx(context.Background(), "job-999999"); err == nil {
		t.Error("WaitCtx on unknown job did not fail")
	}
}

// TestSharedPartitionBatchesPastOneShotCap runs the paper's shape, one
// SharedPartition batch per case, with more partitions per batch than
// the artifact cache keeps one-shot: a batch's partitions are never
// one-shot, so the later cases reuse every partition the first built.
func TestSharedPartitionBatchesPastOneShotCap(t *testing.T) {
	reps := defaultArtifactEntries/8 + 2
	e := New(Options{Workers: 2})
	defer e.Close()
	for i, c := range []Case{C2Identity, C3GreedyAllC, C4GreedyMin} {
		jobs, err := e.RunBatch(BatchSpec{
			Graphs:          []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.02}},
			Topologies:      []string{"grid:2x2"},
			Case:            c,
			Reps:            reps,
			Seed:            5,
			NumHierarchies:  1,
			SharedPartition: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		reused := 0
		for _, j := range jobs {
			if j.Status != StatusDone {
				t.Fatalf("%s: job %s: %s", c, j.ID, j.Error)
			}
			if j.Result.PartitionReused {
				reused++
			}
		}
		if want := min(i, 1) * reps; reused != want {
			t.Errorf("%s batch: %d of %d jobs reused a partition, want %d", c, reused, reps, want)
		}
	}
}
