package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/netgen"
)

func testJobSpec(seed int64) JobSpec {
	return JobSpec{
		Graph:             GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology:          "grid:4x4",
		Case:              C2Identity,
		Seed:              seed,
		NumHierarchies:    4,
		IncludeAssignment: true,
	}
}

func TestSubmitWaitLifecycle(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	job, err := e.Submit(testJobSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusQueued || job.ID == "" {
		t.Fatalf("submitted job = %+v, want queued with an ID", job)
	}
	done, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	r := done.Result
	if r.CocoBefore <= 0 || r.CocoAfter <= 0 || r.CocoAfter > r.CocoBefore {
		t.Errorf("suspicious Coco %d -> %d", r.CocoBefore, r.CocoAfter)
	}
	if r.BaseSeconds <= 0 || r.TimerSeconds <= 0 {
		t.Errorf("missing stage times: %+v", r)
	}
	if len(r.Assignment) != r.GraphN {
		t.Errorf("assignment has %d entries for %d vertices", len(r.Assignment), r.GraphN)
	}
	// Stage timings cover the whole pipeline.
	want := map[string]bool{"topology": true, "graph": true, "partition": true, "map": true, "enhance": true}
	for _, st := range done.Stages {
		delete(want, st.Name)
		if st.Seconds < 0 {
			t.Errorf("stage %s has negative duration", st.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("stages missing from %v: %v", done.Stages, want)
	}
	if snap, ok := e.Get(job.ID); !ok || snap.Status != StatusDone {
		t.Error("Get after Wait did not see the finished job")
	}
	if jobs := e.Jobs(); len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("Jobs() = %+v, want the one submitted job", jobs)
	}
}

func TestJobFailureIsReported(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	for _, spec := range []JobSpec{
		{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.05}, Topology: "bogus"},
		{Graph: GraphSpec{Network: "no-such-net"}, Topology: "grid:4x4"},
		{Graph: GraphSpec{N: 4, Edges: [][3]int64{{0, 1, 1}}}, Topology: "grid:4x4"}, // fewer tasks than PEs
	} {
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done, err := e.Wait(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != StatusFailed || done.Error == "" {
			t.Errorf("job %+v: status %s, want failed with error", spec, done.Status)
		}
	}
}

// TestConcurrentSubmissionsDeterministic is the acceptance check: many
// concurrent submissions with the same fixed seed must return
// byte-identical results (run under -race). The specs deliberately span
// generator models (RMAT and BA) and cases: a map-iteration-order
// dependence in the BA generator once made c3 jobs nondeterministic
// while the RMAT/c2 path stayed clean.
func TestConcurrentSubmissionsDeterministic(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()

	specs := []JobSpec{
		testJobSpec(42),
		{
			Graph:             GraphSpec{Network: "as-22july06", Scale: 0.03, Seed: 3}, // BA model
			Topology:          "torus:4x4",
			Case:              C3GreedyAllC,
			Seed:              77,
			NumHierarchies:    4,
			IncludeAssignment: true,
		},
	}
	const perSpec = 6
	results := make([][]byte, perSpec*len(specs))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := e.Submit(specs[i%len(specs)])
			if err != nil {
				t.Error(err)
				return
			}
			done, err := e.Wait(job.ID)
			if err != nil {
				t.Error(err)
				return
			}
			if done.Status != StatusDone {
				t.Errorf("job failed: %s", done.Error)
				return
			}
			buf, err := json.Marshal(done.Result)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = buf
		}(i)
	}
	wg.Wait()
	// Timings differ run to run, identical concurrent jobs race for who
	// computes vs reuses the shared partition artifact, and the width a
	// job reaches depends on pool occupancy at grant time; strip all
	// three kinds of provenance before comparing — the computed quality
	// must be identical either way (stripPerfFields is the shared
	// definition of exactly that contract).
	normalize := func(b []byte) []byte {
		var r JobResult
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		r = stripPerfFields(&r)
		out, _ := json.Marshal(r)
		return out
	}
	for s := range specs {
		first := normalize(results[s])
		for i := s + len(specs); i < len(results); i += len(specs) {
			if !bytes.Equal(first, normalize(results[i])) {
				t.Fatalf("spec %d result %d differs:\n%s\nvs\n%s", s, i, first, normalize(results[i]))
			}
		}
	}
}

// idleScratch returns the arena sets the engine holds idle.
func idleScratch(e *Engine) []*workerScratch {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	return append([]*workerScratch(nil), e.scratch...)
}

// A closed-loop client keeps one arena set however many workers the
// engine has: a job returns its set before it is reported done, so the
// client's next job pops the set this one warmed instead of building
// another.
func TestSequentialJobsReuseOneArenaSet(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()

	var warm *workerScratch
	for i := 0; i < 60; i++ {
		job, err := e.Submit(testJobSpec(42))
		if err != nil {
			t.Fatal(err)
		}
		// Poll instead of Wait: the check then runs as soon as the job
		// reads finished, while its worker may still be closing it, so
		// a set returned after that point shows as missing.
		done, _ := e.Get(job.ID)
		for done.Status == StatusQueued || done.Status == StatusRunning {
			done, _ = e.Get(job.ID)
		}
		if done.Status != StatusDone {
			t.Fatalf("job %d failed: %s", i, done.Error)
		}
		idle := idleScratch(e)
		if len(idle) != 1 {
			t.Fatalf("after round trip %d: %d idle arena sets, want 1", i+1, len(idle))
		}
		if warm == nil {
			warm = idle[0]
		} else if idle[0] != warm {
			t.Fatalf("round trip %d ran on a new arena set", i+1)
		}
	}
}

// A burst builds one arena set per job running at once, which the pool
// size bounds.
func TestBurstBuildsAtMostWorkersArenaSets(t *testing.T) {
	const workers = 3
	e := New(Options{Workers: workers})
	defer e.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8*workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := e.Submit(testJobSpec(int64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			done, err := e.Wait(job.ID)
			if err != nil {
				t.Error(err)
				return
			}
			if done.Status != StatusDone {
				t.Errorf("job %d failed: %s", i, done.Error)
			}
		}()
	}
	wg.Wait()
	if n := len(idleScratch(e)); n < 1 || n > workers {
		t.Fatalf("%d idle arena sets after the burst, want 1 to %d", n, workers)
	}
}

func TestRunSyncMatchesSubmitted(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	res, err := e.Run(testJobSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Error("no stage timings in synchronous run result")
	}
	job, err := e.Submit(testJobSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Result.CocoAfter != res.CocoAfter || done.Result.CocoBefore != res.CocoBefore {
		t.Errorf("sync run Coco %d->%d, pooled %d->%d",
			res.CocoBefore, res.CocoAfter, done.Result.CocoBefore, done.Result.CocoAfter)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	if _, err := e.Submit(testJobSpec(1)); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

func TestQueueFull(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 1})
	defer e.Close()
	// Saturate: with one worker and QueueCap 1, at most a few Submits
	// can be outstanding; eventually one must be rejected.
	var rejected bool
	var ids []string
	for i := 0; i < 50; i++ {
		job, err := e.Submit(testJobSpec(int64(i)))
		if err != nil {
			rejected = true
			break
		}
		ids = append(ids, job.ID)
	}
	if !rejected {
		t.Error("queue of capacity 1 accepted 50 jobs without rejection")
	}
	for _, id := range ids {
		if _, err := e.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchFanOut(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	jobs, err := e.RunBatch(BatchSpec{
		Graphs:         []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11}},
		Topologies:     []string{"grid:4x4", "hypercube:4"},
		Case:           C2Identity,
		Reps:           2,
		Seed:           5,
		NumHierarchies: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 { // 1 graph × 2 topologies × 2 reps
		t.Fatalf("batch produced %d jobs, want 4", len(jobs))
	}
	for _, j := range jobs {
		if j.Status != StatusDone {
			t.Fatalf("batch job %s: %s (%s)", j.ID, j.Status, j.Error)
		}
	}
	// Same (topology, rep) coordinates, same seed: reps of one pair
	// differ, pairs across topologies share the per-rep seed.
	if jobs[0].Spec.Seed == jobs[1].Spec.Seed {
		t.Error("reps share a seed")
	}
	if jobs[0].Spec.Seed != jobs[2].Spec.Seed {
		t.Error("rep 0 seeds differ across topologies")
	}
	// The two topologies were each built once; reps hit the cache.
	hits, misses := e.Cache().Stats()
	if misses != 2 {
		t.Errorf("cache misses = %d, want 2 (one build per topology)", misses)
	}
	if hits < 2 {
		t.Errorf("cache hits = %d, want ≥ 2 (reps reuse labelings)", hits)
	}
}

func TestBatchSkipTooSmall(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	small := netgen.Generate(netgen.BA, 64, 128, 3) // < 256 PEs of grid:16x16
	jobs, err := e.RunBatch(BatchSpec{
		Graphs:         []GraphSpec{{G: small}},
		Topologies:     []string{"grid:4x4", "grid:16x16"},
		Reps:           1,
		NumHierarchies: 2,
		SkipTooSmall:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("batch produced %d slots, want 2", len(jobs))
	}
	if jobs[0].Status != StatusDone {
		t.Errorf("grid:4x4 job: %s (%s)", jobs[0].Status, jobs[0].Error)
	}
	if jobs[1].ID != "" {
		t.Errorf("grid:16x16 job not skipped: %+v", jobs[1])
	}
}

// TestBatchSkipTooSmallBadTopologyQueuesNothing: under SkipTooSmall a
// bad topology fails the batch before any job is queued, even when
// the jobs of a good topology come first in the fan-out.
func TestBatchSkipTooSmallBadTopologyQueuesNothing(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	path := make(EdgeList, 59)
	for v := range path {
		path[v] = [3]int64{int64(v), int64(v + 1), 1}
	}
	ids, err := e.SubmitBatch(BatchSpec{
		Graphs:         []GraphSpec{{N: 60, Edges: path}},
		Topologies:     []string{"grid:2x2", "grid:0x9"},
		Reps:           2,
		NumHierarchies: 2,
		SkipTooSmall:   true,
	})
	if err == nil || !strings.Contains(err.Error(), "bad extent") {
		t.Fatalf("SubmitBatch err = %v, want the bad extent of grid:0x9", err)
	}
	if jobs := e.Jobs(); len(ids) != 0 || len(jobs) != 0 {
		t.Fatalf("failed batch queued %v; the engine holds %d jobs", ids, len(jobs))
	}
}

func TestParseCase(t *testing.T) {
	for in, want := range map[string]Case{
		"c1": C1SCOTCH, "SCOTCH": C1SCOTCH, "drb": C1SCOTCH,
		"": C2Identity, "identity": C2Identity,
		"GreedyAllC": C3GreedyAllC, "c4": C4GreedyMin,
	} {
		got, err := ParseCase(in)
		if err != nil || got != want {
			t.Errorf("ParseCase(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseCase("c5"); err == nil {
		t.Error("ParseCase(c5) succeeded")
	}
	// JSON round trip.
	var c Case
	if err := json.Unmarshal([]byte(`"greedymin"`), &c); err != nil || c != C4GreedyMin {
		t.Errorf("unmarshal greedymin = %v, %v", c, err)
	}
	b, _ := json.Marshal(C1SCOTCH)
	if string(b) != `"SCOTCH"` {
		t.Errorf("marshal C1SCOTCH = %s", b)
	}
}

func TestCaseStrings(t *testing.T) {
	want := map[Case]string{
		C1SCOTCH: "SCOTCH", C2Identity: "IDENTITY",
		C3GreedyAllC: "GREEDYALLC", C4GreedyMin: "GREEDYMIN",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d: %q != %q", int(c), c.String(), s)
		}
	}
	// Cases lists c1..c4 under the paper's names, in paper order.
	if got := fmt.Sprint(Cases()); got != "[SCOTCH IDENTITY GREEDYALLC GREEDYMIN]" {
		t.Errorf("Cases() = %s, want [SCOTCH IDENTITY GREEDYALLC GREEDYMIN]", got)
	}
}

// TestRunAllCasesInlineGraph runs one repetition of every case on an
// in-memory graph and checks the Coco values and stage times it reports.
func TestRunAllCasesInlineGraph(t *testing.T) {
	ga := netgen.Generate(netgen.RMAT, 600, 2400, 3)
	e := New(Options{Workers: 2})
	defer e.Close()
	for _, c := range Cases() {
		m, err := e.Run(JobSpec{
			Graph:          GraphSpec{G: ga},
			Topology:       "grid:4x4",
			Case:           c,
			Epsilon:        0.03,
			Seed:           5,
			NumHierarchies: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if m.CocoBefore <= 0 || m.CocoAfter <= 0 {
			t.Errorf("%s: non-positive Coco %d -> %d", c, m.CocoBefore, m.CocoAfter)
		}
		if m.CocoAfter > m.CocoBefore {
			t.Errorf("%s: TIMER worsened Coco: %d -> %d", c, m.CocoBefore, m.CocoAfter)
		}
		if m.BaseSeconds <= 0 || m.TimerSeconds <= 0 {
			t.Errorf("%s: missing timings base %g, timer %g", c, m.BaseSeconds, m.TimerSeconds)
		}
	}
}

func TestMalformedInlineGraphFailsJobNotWorker(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	for _, gs := range []GraphSpec{
		{Edges: [][3]int64{{-1, 0, 1}}},
		{N: -5, Edges: [][3]int64{{0, 1, 1}}},
		{N: 1 << 40, Edges: [][3]int64{{0, 1, 1}}},
		{Edges: [][3]int64{{0, 1 << 40, 1}}},
	} {
		job, err := e.Submit(JobSpec{Graph: gs, Topology: "grid:4x4"})
		if err != nil {
			t.Fatal(err)
		}
		done, err := e.Wait(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != StatusFailed || done.Error == "" {
			t.Errorf("graph %+v: status %s, want failed", gs, done.Status)
		}
	}
	// The worker survived; a well-formed job still runs.
	job, err := e.Submit(testJobSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := e.Wait(job.ID); done.Status != StatusDone {
		t.Fatalf("worker did not survive malformed jobs: %s", done.Error)
	}
}

func TestJobRetentionEviction(t *testing.T) {
	e := New(Options{Workers: 2, RetainJobs: 4})
	defer e.Close()
	var ids []string
	for i := 0; i < 10; i++ {
		job, err := e.Submit(testJobSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		if _, err := e.Wait(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.Jobs()); n > 4 {
		t.Errorf("retained %d jobs, want ≤ 4", n)
	}
	if _, ok := e.Get(ids[0]); ok {
		t.Error("oldest job survived eviction")
	}
	if _, ok := e.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job was evicted")
	}
}

func TestOmittedCaseDefaultsToIdentity(t *testing.T) {
	// Omitting "case" in JSON and sending "case": "" must both select
	// the documented IDENTITY default, not the SCOTCH/DRB mapper.
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"topology":"grid:4x4"}`), &spec); err != nil {
		t.Fatal(err)
	}
	if got := spec.withDefaults().Case; got != C2Identity {
		t.Errorf("omitted case resolves to %v, want IDENTITY", got)
	}
	if spec.Case.String() != "IDENTITY" {
		t.Errorf("unspecified case prints %q", spec.Case.String())
	}
	// Seed derivation stays 0-based at C1SCOTCH, preserving the
	// historical per-rep seeds of committed baselines.
	if s := batchSeed(1, 0, C1SCOTCH); s != 1 {
		t.Errorf("batchSeed(1,0,c1) = %d, want 1", s)
	}
	if s := batchSeed(1, 2, C2Identity); s != 1+2*7919+104729 {
		t.Errorf("batchSeed(1,2,c2) = %d", s)
	}
}

func TestBatchTooLargeForRetention(t *testing.T) {
	e := New(Options{Workers: 1, RetainJobs: 4})
	defer e.Close()
	_, err := e.SubmitBatch(BatchSpec{
		Graphs:     []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}},
		Topologies: []string{"grid:4x4"},
		Reps:       5,
	})
	if err == nil {
		t.Fatal("batch larger than the retention window was accepted")
	}
}

func TestGraphSpecInlineEdges(t *testing.T) {
	gs := GraphSpec{Edges: [][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 3, 0}}}
	g, err := gs.materialize(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Errorf("inline graph: n=%d m=%d, want 4/3", g.N(), g.M())
	}
	if _, err := (GraphSpec{}).materialize(1); err == nil {
		t.Error("empty graph spec succeeded")
	}
	both := GraphSpec{Network: "p2p-Gnutella", Edges: [][3]int64{{0, 1, 1}}}
	if _, err := both.materialize(1); err == nil {
		t.Error("graph spec with both network and edges succeeded")
	}
}

func ExampleEngine() {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	job, _ := eng.Submit(JobSpec{
		Graph:          GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology:       "grid:4x4",
		Case:           C2Identity,
		Seed:           42,
		NumHierarchies: 4,
	})
	done, _ := eng.Wait(job.ID)
	fmt.Println(done.Status, done.Result.CocoAfter <= done.Result.CocoBefore)
	// Output:
	// done true
}

// TestStatsStageSeconds: worker-executed jobs must accumulate into the
// engine's cumulative per-stage clock, giving operators the
// base-vs-enhancement split (partition/map vs enhance) under load.
func TestStatsStageSeconds(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	if s := e.Stats(); len(s.StageSeconds) != 0 {
		t.Fatalf("fresh engine reports stage seconds: %+v", s.StageSeconds)
	}
	job, err := e.Submit(testJobSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(job.ID); err != nil {
		t.Fatal(err)
	}
	drb := testJobSpec(4)
	drb.Case = C1SCOTCH
	job2, err := e.Submit(drb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(job2.ID); err != nil {
		t.Fatal(err)
	}

	s := e.Stats()
	for _, stage := range []string{"partition", "map", "drb", "enhance", "topology", "graph"} {
		if _, ok := s.StageSeconds[stage]; !ok {
			t.Errorf("stage %q missing from cumulative stats: %+v", stage, s.StageSeconds)
		}
	}
	if s.StageSeconds["enhance"] <= 0 {
		t.Errorf("enhance stage accumulated %v seconds, want > 0", s.StageSeconds["enhance"])
	}
	// Stats hands out a copy: mutating it must not corrupt the engine.
	s.StageSeconds["enhance"] = -1
	if e.Stats().StageSeconds["enhance"] <= 0 {
		t.Error("Stats exposed internal stage map")
	}
}

// TestBatchSkipTooSmallLazyNetgen pins the skip decision to the
// *realized* vertex count for named netgen graphs too: generation
// keeps only the largest component, so a predicted size could admit
// borderline pairs that then fail instead of skipping.
func TestBatchSkipTooSmallLazyNetgen(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	jobs, err := e.RunBatch(BatchSpec{
		// Scale so small the spec collapses to the 64-vertex floor:
		// realized N ≤ 64 can never outsize 256 PEs.
		Graphs:         []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.001}},
		Topologies:     []string{"grid:4x4", "grid:16x16"},
		Reps:           1,
		NumHierarchies: 2,
		SkipTooSmall:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Status != StatusDone {
		t.Errorf("grid:4x4 job: %s (%s)", jobs[0].Status, jobs[0].Error)
	}
	if jobs[1].ID != "" {
		t.Errorf("grid:16x16 job not skipped: %+v", jobs[1])
	}
}

// TestBatchLazyValidatesNetworkName pins submit-time validation on the
// lazy-materialization path: a typo'd network name must fail the batch
// submission itself, not expand into per-job failures.
func TestBatchLazyValidatesNetworkName(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	ids, err := e.SubmitBatch(BatchSpec{
		Graphs:     []GraphSpec{{Network: "p2p-Gnutela", Scale: 0.05}}, // typo
		Topologies: []string{"grid:4x4"},
		Reps:       2,
	})
	if err == nil {
		t.Fatal("batch with unknown network was accepted")
	}
	if len(ids) != 0 {
		t.Errorf("%d jobs were enqueued before the validation failure", len(ids))
	}
}

// TestBatchBadGraphQueuesNothing: a bad graph fails the batch before
// any job is queued, the jobs of the good graphs before it included.
func TestBatchBadGraphQueuesNothing(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	for _, bad := range []GraphSpec{
		{Edges: [][3]int64{{0, -1, 1}}},
		{Ref: "file:/no/such/file"},
		{Network: "p2p-Gnutela", Scale: 0.05}, // typo
	} {
		ids, err := e.SubmitBatch(BatchSpec{
			Graphs:     []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}, {N: 60, Edges: ringEdges(60)}, bad},
			Topologies: []string{"grid:2x2"},
			Reps:       2,
		})
		if err == nil {
			t.Fatalf("batch with bad graph %+v was accepted", bad)
		}
		if len(ids) != 0 {
			t.Errorf("bad graph %+v: %d job IDs returned with the error", bad, len(ids))
		}
	}
	if jobs := e.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs were queued before the bad graph failed the batch", len(jobs))
	}
}

// TestSnapshotsOmitInlineEdges: no job snapshot carries the inline
// edge list — not Submit's, not Get's while the job waits for the
// worker, not Wait's, not the listing's — yet the worker runs the job
// on the whole list.
func TestSnapshotsOmitInlineEdges(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	// Occupy the only worker so the inline job is still queued when Get
	// snapshots it.
	blocker := testJobSpec(1)
	blocker.Graph.Scale = 0.25
	blocker.NumHierarchies = 50
	if _, err := e.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: GraphSpec{N: 60, Edges: ringEdges(60)}, Topology: "grid:2x2", NumHierarchies: 2}
	submitted, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queued, _ := e.Get(submitted.ID)
	if queued.Status != StatusQueued {
		t.Fatalf("Get behind a busy worker: status %s, want queued", queued.Status)
	}
	done, err := e.Wait(submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("inline job: %s (%s)", done.Status, done.Error)
	}
	snaps := map[string]Job{"Submit": submitted, "Get": queued, "Wait": done}
	for _, j := range e.Jobs() {
		if j.ID == submitted.ID {
			snaps["Jobs"] = j
		}
	}
	if len(snaps) != 4 {
		t.Fatal("Jobs does not list the inline job")
	}
	for name, j := range snaps {
		if j.Spec.Graph.Edges != nil {
			t.Errorf("%s snapshot carries %d inline edges", name, len(j.Spec.Graph.Edges))
		}
	}
	if done.Result.GraphM != len(spec.Graph.Edges) {
		t.Errorf("result GraphM = %d, want the %d submitted edges", done.Result.GraphM, len(spec.Graph.Edges))
	}
}
