package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netgen"
)

func TestSpecHashCanonicalizesDefaults(t *testing.T) {
	minimal := JobSpec{
		Graph:    GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology: "grid:4x4",
	}
	spelled := minimal
	spelled.Case = C2Identity
	spelled.Epsilon = 0.03
	spelled.Seed = 1

	h1, ok1 := SpecHash(minimal)
	h2, ok2 := SpecHash(spelled)
	if !ok1 || !ok2 {
		t.Fatalf("SpecHash not ok: %v, %v", ok1, ok2)
	}
	if h1 != h2 {
		t.Errorf("spelled-out defaults changed the hash: %s vs %s", h1, h2)
	}

	other := minimal
	other.Seed = 2
	if h3, _ := SpecHash(other); h3 == h1 {
		t.Error("different seed hashed identically")
	}
}

func TestSpecHashNoSerializableIdentity(t *testing.T) {
	g := netgen.Generate(netgen.BA, 64, 128, 3)

	// An in-memory graph without provenance cannot be replayed or
	// retried elsewhere: no identity.
	if _, ok := SpecHash(JobSpec{Graph: GraphSpec{G: g}, Topology: "grid:4x4"}); ok {
		t.Error("provenance-free pinned graph got a spec hash")
	}

	// A pinned graph WITH provenance hashes by the provenance, exactly
	// as the unpinned spec would.
	pinned := JobSpec{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11, G: g}, Topology: "grid:4x4"}
	unpinned := pinned
	unpinned.Graph.G = nil
	hp, okp := SpecHash(pinned)
	hu, oku := SpecHash(unpinned)
	if !okp || !oku || hp != hu {
		t.Errorf("pinned-with-provenance hash = %s (ok %v), unpinned = %s (ok %v); want equal", hp, okp, hu, oku)
	}
}

// TestExpandBatchMatchesSubmitBatch is the equivalence the fleet router
// depends on: scattering ExpandBatch's per-job specs one by one must
// compute the exact results SubmitBatch would, in the same fan-out
// order — seeds, partition seeds, everything but perf noise. The batch
// has a named network, which SubmitBatch leaves unmaterialized, and an
// inline graph, which SubmitBatch pins beside its edges while
// ExpandBatch's specs carry only the edges.
func TestExpandBatchMatchesSubmitBatch(t *testing.T) {
	batch := BatchSpec{
		Graphs:          []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}, {N: 60, Edges: ringEdges(60)}},
		Topologies:      []string{"grid:4x4", "hypercube:4"},
		Case:            C3GreedyAllC,
		Reps:            2,
		Seed:            5,
		NumHierarchies:  3,
		SharedPartition: true,
	}
	specs, err := ExpandBatch(batch, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded to %d specs, want 8", len(specs))
	}
	for i, spec := range specs {
		if spec.Graph.G != nil {
			t.Errorf("spec %d: ExpandBatch pinned a graph", i)
		}
		rep := i % batch.Reps
		if want := batchSeed(batch.Seed, rep, batch.Case); spec.Seed != want {
			t.Errorf("spec %d seed = %d, want batchSeed %d", i, spec.Seed, want)
		}
		if want := sharedPartitionSeed(batch.Seed, rep); spec.PartitionSeed != want {
			t.Errorf("spec %d partition seed = %d, want %d", i, spec.PartitionSeed, want)
		}
		if spec.Graph.Seed != batch.Seed {
			t.Errorf("spec %d graph seed = %d, want batch seed pinned (%d)", i, spec.Graph.Seed, batch.Seed)
		}
	}

	ref := New(Options{Workers: 2})
	defer ref.Close()
	want, err := ref.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	scattered := New(Options{Workers: 2})
	defer scattered.Close()
	for i, spec := range specs {
		job, err := scattered.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scattered.Wait(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusDone || want[i].Status != StatusDone {
			t.Fatalf("spec %d: scattered %s / batch %s", i, got.Status, want[i].Status)
		}
		if a, b := got.Result.StripPerf(), want[i].Result.StripPerf(); !reflect.DeepEqual(a, b) {
			t.Errorf("spec %d: scattered result diverged from batch:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

func TestExpandBatchRejections(t *testing.T) {
	if _, err := ExpandBatch(BatchSpec{Topologies: []string{"grid:4x4"}}, math.MaxInt); err == nil {
		t.Error("empty graph list accepted")
	}
	if _, err := ExpandBatch(BatchSpec{
		Graphs: []GraphSpec{{Network: "p2p-Gnutella"}}, Topologies: []string{"grid:4x4"},
		SkipTooSmall: true,
	}, math.MaxInt); err == nil {
		t.Error("SkipTooSmall accepted by the pure expansion")
	}
	if _, err := ExpandBatch(BatchSpec{
		Graphs: []GraphSpec{{Network: "no-such-net"}}, Topologies: []string{"grid:4x4"},
	}, math.MaxInt); err == nil {
		t.Error("unknown network accepted")
	}
}
