package engine

import (
	"reflect"
	"testing"

	"repro/internal/ingest"
)

// stripPerfFields is the test-side shorthand for JobResult.StripPerf —
// what remains after it must be byte-identical between a sequential and
// a wide run; that is wide mode's whole contract.
func stripPerfFields(r *JobResult) JobResult { return r.StripPerf() }

// TestWideJobEquivalence runs a representative spec matrix — every
// initial-mapping case, the three topology families, generated, inline
// and ingested graphs — once sequentially (Engine.Run, which never
// widens) and once as a forced-wide job on a multi-worker pool, and
// requires the quality fields of the two JobResults to match exactly.
func TestWideJobEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second matrix")
	}
	// The two runs use two engines, so the wide run cannot be served the
	// sequential run's partition from the artifact cache: both really
	// compute.
	ref := New(Options{Workers: 1})
	defer ref.Close()
	e := New(Options{Workers: 4})
	defer e.Close()

	var info GraphInfo
	for _, eng := range []*Engine{ref, e} {
		var err error
		if info, err = eng.IngestPath("../ingest/testdata/ca-grqc-excerpt.txt", ingest.Options{}); err != nil {
			t.Fatalf("ingest fixture: %v", err)
		}
	}

	inline := GraphSpec{N: 60, Edges: ringEdges(60)}
	specs := []JobSpec{
		{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.25}, Topology: "grid:8x8", Case: C2Identity, NumHierarchies: 16, Seed: 1},
		{Graph: GraphSpec{Network: "PGPgiantcompo", Scale: 0.25}, Topology: "hypercube:6", Case: C1SCOTCH, NumHierarchies: 16, Seed: 1},
		{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.25}, Topology: "torus:4x4", Case: C3GreedyAllC, NumHierarchies: 16, Seed: 2},
		{Graph: GraphSpec{Network: "PGPgiantcompo", Scale: 0.25}, Topology: "grid:4x4x4", Case: C4GreedyMin, NumHierarchies: 16, Seed: 3},
		{Graph: inline, Topology: "grid:4x4", Case: C0Random, NumHierarchies: 16, Seed: 4},
		{Graph: GraphSpec{Ref: info.Ref}, Topology: "grid:8x8", Case: C2Identity, NumHierarchies: 16, Seed: 5},
	}
	for _, spec := range specs {
		seq, err := ref.Run(spec)
		if err != nil {
			t.Fatalf("%s/%s sequential: %v", spec.Topology, spec.Case, err)
		}
		wspec := spec
		wspec.Wide = true
		job, err := e.Submit(wspec)
		if err != nil {
			t.Fatalf("%s/%s submit: %v", spec.Topology, spec.Case, err)
		}
		fin, err := e.Wait(job.ID)
		if err != nil {
			t.Fatalf("%s/%s wait: %v", spec.Topology, spec.Case, err)
		}
		if fin.Status != StatusDone {
			t.Fatalf("%s/%s wide job failed: %s", spec.Topology, spec.Case, fin.Error)
		}
		if fin.Result.PartitionReused {
			t.Fatalf("%s/%s: the wide job's partition came from the cache", spec.Topology, spec.Case)
		}
		if got, want := stripPerfFields(fin.Result), stripPerfFields(seq); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: wide result differs from sequential:\nwide: %+v\nseq:  %+v",
				spec.Topology, spec.Case, got, want)
		}
		if fin.Result.Width < 1 {
			t.Errorf("%s/%s: wide job reported width %d, want >= 1", spec.Topology, spec.Case, fin.Result.Width)
		}
	}
	st := e.Stats()
	if st.WideJobs == 0 || st.WideGrants == 0 {
		t.Errorf("stats never counted wide work: jobs %d grants %d", st.WideJobs, st.WideGrants)
	}
}

func ringEdges(n int) [][3]int64 {
	edges := make([][3]int64, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges, [3]int64{int64(v), int64((v + 1) % n), 1})
		edges = append(edges, [3]int64{int64(v), int64((v + 7) % n), 2})
	}
	return edges
}

// TestAutoWideGrantPolicy pins the occupancy check of a job that did
// not set JobSpec.Wide: on a 4-worker pool it may borrow helpers while
// at most 2 other jobs run or wait, and not with 3. An unforced job on
// an idle pool therefore widens.
func TestAutoWideGrantPolicy(t *testing.T) {
	busy := &Engine{opt: Options{Workers: 4}, pending: make(chan *jobRecord, 2)}
	busy.running.Store(2) // the asking job and one other
	busy.pending <- &jobRecord{}
	if !busy.underloaded() {
		t.Error("a 4-worker pool with 2 other jobs is not underloaded")
	}
	busy.pending <- &jobRecord{}
	if busy.underloaded() {
		t.Error("a 4-worker pool with 3 other jobs is underloaded")
	}

	e := New(Options{Workers: 4})
	defer e.Close()
	job, err := e.Submit(JobSpec{
		Graph:          GraphSpec{Network: "p2p-Gnutella", Scale: 0.1},
		Topology:       "grid:4x4",
		Case:           C2Identity,
		NumHierarchies: 4,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StatusDone {
		t.Fatalf("job %s: %s", fin.Status, fin.Error)
	}
	if fin.Result.Width < 2 {
		t.Errorf("an unforced job on an idle pool reached width %d, want at least 2", fin.Result.Width)
	}
	if st := e.Stats(); st.WideJobs != 1 || st.WideGrants == 0 {
		t.Errorf("stats counted %d wide jobs and %d grants, want 1 job and some grants", st.WideJobs, st.WideGrants)
	}
}
