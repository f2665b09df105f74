package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// durableSpecs is the workload of the crash/restart tests: distinct
// seeds so every job is a distinct ledger entry, enough TIMER
// hierarchies that a batch takes long enough to kill mid-flight.
func durableSpecs() []JobSpec {
	specs := make([]JobSpec, 8)
	for i := range specs {
		s := testJobSpec(int64(100 + i))
		s.NumHierarchies = 24
		s.IncludeAssignment = false
		specs[i] = s
	}
	return specs
}

func TestDurableSpecStripsPinnedGraph(t *testing.T) {
	spec := testJobSpec(1)
	g, err := spec.Graph.materialize(1)
	if err != nil {
		t.Fatal(err)
	}
	pinned := spec
	pinned.Graph.G = g
	ds, ok := durableSpec(pinned)
	if !ok || ds.Graph.G != nil {
		t.Fatalf("pinned graph with provenance not stripped: ok=%v G=%v", ok, ds.Graph.G != nil)
	}
	_, h1, err := canonicalSpec(ds)
	if err != nil {
		t.Fatal(err)
	}
	ds2, _ := durableSpec(spec)
	_, h2, _ := canonicalSpec(ds2)
	if h1 != h2 {
		t.Fatalf("pinned and unpinned spec hash differently: %s vs %s", h1, h2)
	}
	// A bare graph with no provenance has no durable identity.
	if _, ok := durableSpec(JobSpec{Graph: GraphSpec{G: g}, Topology: "grid:4x4"}); ok {
		t.Fatal("provenance-free graph claimed durable")
	}
	// Specs differing only in spelled-out defaults hash identically.
	spelled := spec
	spelled.Epsilon = 0.03
	spelled.Seed = 1
	ds3, _ := durableSpec(spelled)
	base := spec
	base.Epsilon, base.Seed = 0, 0
	ds4, _ := durableSpec(base)
	_, h3, _ := canonicalSpec(ds3)
	_, h4, _ := canonicalSpec(ds4)
	if h3 != h4 {
		t.Fatal("default-resolved specs hash differently")
	}
}

// TestDedupServesFromLedger: a resubmission of a done spec is answered
// with the done job itself (its ID, its result flagged ServedFromLedger
// in that answer only), adds no job record and recomputes nothing.
func TestDedupServesFromLedger(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 2, JobDir: dir})
	spec := testJobSpec(42)
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone {
		t.Fatalf("job failed: %s", first.Error)
	}
	before := e.Stats()

	dup, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Status != StatusDone || dup.Result == nil {
		t.Fatalf("duplicate not served from ledger: %+v", dup)
	}
	if !dup.Result.ServedFromLedger {
		t.Fatal("duplicate result not flagged ServedFromLedger")
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate answered as %s, want the done job %s", dup.ID, first.ID)
	}
	if !reflect.DeepEqual(dup.Result.StripPerf(), first.Result.StripPerf()) {
		t.Fatalf("ledger-served result differs:\n got %+v\nwant %+v", dup.Result.StripPerf(), first.Result.StripPerf())
	}
	st := e.Stats()
	if st.JobsServed != before.JobsServed {
		t.Fatalf("duplicate was recomputed: served %d -> %d", before.JobsServed, st.JobsServed)
	}
	if st.JobsRetained != before.JobsRetained {
		t.Fatalf("duplicate added a job record: retained %d -> %d", before.JobsRetained, st.JobsRetained)
	}
	if st.JobStore == nil || st.JobStore.DedupServed != before.JobStore.DedupServed+1 {
		t.Fatalf("dedup counter wrong: %+v", st.JobStore)
	}
	if again, ok := e.Get(first.ID); !ok || again.Result == nil || again.Result.ServedFromLedger {
		t.Fatalf("the done job's own record changed: %+v", again)
	}
	// Concurrent duplicates and reads share the one record (run under
	// -race): each answer is flagged, the record never is.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				if d, err := e.Submit(spec); err != nil || d.ID != first.ID || d.Result == nil || !d.Result.ServedFromLedger {
					t.Errorf("concurrent duplicate: %v, %s, flagged %v", err, d.ID, d.Result != nil && d.Result.ServedFromLedger)
				}
				if g, _ := e.Get(first.ID); g.Result == nil || g.Result.ServedFromLedger {
					t.Errorf("concurrent Get of %s: %+v", first.ID, g.Result)
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.JobsRetained != before.JobsRetained || st.JobsServed != before.JobsServed {
		t.Fatalf("concurrent duplicates changed the engine: retained %d, served %d; want %d, %d",
			st.JobsRetained, st.JobsServed, before.JobsRetained, before.JobsServed)
	}
	// A different spec is not deduped.
	other, err := e.Submit(testJobSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Wait(other.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Result.ServedFromLedger {
		t.Fatal("distinct spec served from ledger")
	}
	e.Close()

	// The ledger survives a clean restart too: results and dedup both.
	e2 := New(Options{Workers: 1, JobDir: dir})
	defer e2.Close()
	got, ok := e2.Get(first.ID)
	if !ok || got.Status != StatusDone {
		t.Fatalf("finished job not re-registered after restart: %+v", got)
	}
	if !reflect.DeepEqual(got.Result.StripPerf(), first.Result.StripPerf()) {
		t.Fatal("restarted result differs from original")
	}
	redup, err := e2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if redup.Status != StatusDone || !redup.Result.ServedFromLedger {
		t.Fatalf("dedup did not survive restart: %+v", redup)
	}
}

// TestRestartKeepsServedJobIDs: every ID a durable engine answered a
// submission with, the answer to a resubmission included, still
// resolves to its done job after a restart, and the restarted engine
// never hands one of those IDs to a new job.
func TestRestartKeepsServedJobIDs(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 1, JobDir: dir})
	spec := testJobSpec(44)
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Wait(job.ID)
	if err != nil || first.Status != StatusDone {
		t.Fatalf("job %s: %v, %s (%s)", job.ID, err, first.Status, first.Error)
	}
	dup, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Status != StatusDone || dup.Result == nil || !dup.Result.ServedFromLedger {
		t.Fatalf("resubmission not served from the ledger: %+v", dup)
	}
	e.Close()

	e2 := New(Options{Workers: 1, JobDir: dir})
	defer e2.Close()
	for _, id := range []string{first.ID, dup.ID} {
		got, ok := e2.Get(id)
		if !ok || got.Status != StatusDone || got.Result == nil {
			t.Fatalf("%s after restart: %+v (known %v)", id, got, ok)
		}
		if !reflect.DeepEqual(got.Result.StripPerf(), first.Result.StripPerf()) {
			t.Fatalf("%s after restart: result differs from the original", id)
		}
	}
	fresh, err := e2.Submit(testJobSpec(45))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == first.ID || fresh.ID == dup.ID {
		t.Fatalf("restarted engine reissued %s to a new job", fresh.ID)
	}
}

// TestReplayDropsFinishedInlineEdges: a finished inline job's record
// holds no edges after a restart, as before it, for a done job and a
// failed one alike, yet Get still describes each job.
func TestReplayDropsFinishedInlineEdges(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{
		{Graph: GraphSpec{N: 60, Edges: ringEdges(60)}, Topology: "grid:2x2", Case: C3GreedyAllC, Seed: 9, NumHierarchies: 2},
		// Three vertices on four PEs: the job fails.
		{Graph: GraphSpec{N: 3, Edges: ringEdges(3)}, Topology: "grid:2x2", Case: C2Identity, Seed: 10, NumHierarchies: 2},
	}
	wantStatus := []JobStatus{StatusDone, StatusFailed}
	e := New(Options{Workers: 1, JobDir: dir})
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := e.Wait(job.ID); err != nil || fin.Status != wantStatus[i] {
			t.Fatalf("job %d: %v, %s (%s); want %s", i, err, fin.Status, fin.Error, wantStatus[i])
		}
		ids[i] = job.ID
	}
	e.Close()

	e2 := New(Options{Workers: 1, JobDir: dir})
	defer e2.Close()
	for i, id := range ids {
		e2.mu.Lock()
		rec := e2.jobs[id]
		e2.mu.Unlock()
		if rec == nil {
			t.Fatalf("%s not replayed", id)
		}
		rec.mu.Lock()
		n := len(rec.job.Spec.Graph.Edges)
		rec.mu.Unlock()
		if n != 0 {
			t.Errorf("%s: the replayed %s record holds %d inline edges, want 0", id, wantStatus[i], n)
		}
		got, ok := e2.Get(id)
		if !ok || got.Status != wantStatus[i] {
			t.Fatalf("%s after restart: %+v", id, got)
		}
		if s := got.Spec; s.Topology != specs[i].Topology || s.Case != specs[i].Case || s.Seed != specs[i].Seed {
			t.Errorf("%s after restart: spec %s/%s/seed %d, want %s/%s/seed %d",
				id, s.Topology, s.Case, s.Seed, specs[i].Topology, specs[i].Case, specs[i].Seed)
		}
	}
}

// TestLedgerFinishedSpecsDropInlineEdges: a finished inline job's
// terminal record carries its spec without edges, which replaces the
// submitted spec in the ledger, for a done job and a failed one alike;
// a restarted engine still describes each job.
func TestLedgerFinishedSpecsDropInlineEdges(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{
		{Graph: GraphSpec{N: 60, Edges: ringEdges(60)}, Topology: "grid:2x2", Case: C4GreedyMin, Seed: 5, NumHierarchies: 2},
		// Three vertices on four PEs: the job fails.
		{Graph: GraphSpec{N: 3, Edges: ringEdges(3)}, Topology: "grid:2x2", Case: C1SCOTCH, Seed: 6, NumHierarchies: 2},
	}
	wantStatus := []JobStatus{StatusDone, StatusFailed}
	e := New(Options{Workers: 1, JobDir: dir})
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := e.Wait(job.ID); err != nil || fin.Status != wantStatus[i] {
			t.Fatalf("job %d: %v, %s (%s); want %s", i, err, fin.Status, fin.Error, wantStatus[i])
		}
		ids[i] = job.ID
	}
	e.Close()

	store, recv, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if len(recv.Jobs) != len(specs) {
		t.Fatalf("ledger recovered %d jobs, want %d", len(recv.Jobs), len(specs))
	}
	for _, js := range recv.Jobs {
		var spec struct {
			Graph map[string]json.RawMessage `json:"graph"`
		}
		if err := json.Unmarshal(js.Spec, &spec); err != nil || spec.Graph == nil {
			t.Fatalf("%s: ledger spec %s does not parse to a graph (%v)", js.ID, js.Spec, err)
		}
		if !js.Finished() {
			t.Errorf("%s: ledger state %s, want finished", js.ID, js.Op)
		}
		if _, ok := spec.Graph["edges"]; ok {
			t.Errorf("%s (%s): ledger spec holds inline edges: %.80s", js.ID, js.Op, js.Spec)
		}
	}

	e2 := New(Options{Workers: 1, JobDir: dir})
	defer e2.Close()
	for i, id := range ids {
		got, ok := e2.Get(id)
		if !ok || got.Status != wantStatus[i] {
			t.Fatalf("%s after restart: %+v", id, got)
		}
		if s := got.Spec; s.Topology != specs[i].Topology || s.Case != specs[i].Case || s.Seed != specs[i].Seed {
			t.Errorf("%s after restart: spec %s/%s/seed %d, want %s/%s/seed %d",
				id, s.Topology, s.Case, s.Seed, specs[i].Topology, specs[i].Case, specs[i].Seed)
		}
	}
}

func TestFailedJobsRecomputeNotDedup(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 1, JobDir: dir})
	defer e.Close()
	bad := JobSpec{Graph: GraphSpec{Network: "no-such-network"}, Topology: "grid:4x4"}
	job, err := e.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := e.Wait(job.ID)
	if done.Status != StatusFailed {
		t.Fatalf("want failure, got %+v", done)
	}
	again, err := e.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	redone, _ := e.Wait(again.ID)
	if redone.Status != StatusFailed || redone.Result != nil {
		t.Fatalf("failed spec served a result: %+v", redone)
	}
	if e.Stats().JobStore.DedupServed != 0 {
		t.Fatal("failure was deduped")
	}
}

func TestDrainInterruptsAndRestartRequeues(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 1, JobDir: dir})
	specs := durableSpecs()
	ids := make([]string, len(specs))
	for i, s := range specs {
		job, err := e.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	// Wait for the first job so the drain catches a mix of done and
	// queued work.
	if _, err := e.Wait(ids[0]); err != nil {
		t.Fatal(err)
	}

	// A waiter parked on a queued job must be released by the drain,
	// not left hanging.
	waitErr := make(chan error, 1)
	go func() {
		_, err := e.Wait(ids[len(ids)-1])
		waitErr <- err
	}()

	if err := e.DrainAndClose(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		// ErrDraining (released) or nil (the done channel closed first
		// when the job was interrupted) are both fine; hanging is not.
		if err != nil && err != ErrDraining {
			t.Fatalf("drained waiter got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still hanging after drain")
	}
	if _, err := e.Submit(specs[0]); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}

	interrupted := 0
	for _, id := range ids {
		job, ok := e.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch job.Status {
		case StatusDone:
		case StatusInterrupted:
			interrupted++
		default:
			t.Fatalf("job %s left in state %s after drain", id, job.Status)
		}
	}
	if interrupted == 0 {
		t.Fatal("drain interrupted nothing; the test raced all jobs to completion")
	}
	if got := e.Stats().JobStore.Interrupted; got != int64(interrupted) {
		t.Fatalf("interrupted counter %d, want %d", got, interrupted)
	}

	// Restart: every interrupted job is requeued under its old ID and
	// finishes with the same quality as an uninterrupted run.
	e2 := New(Options{Workers: 2, JobDir: dir})
	defer e2.Close()
	if got := e2.Stats().JobStore.JobsRecovered; got != interrupted {
		t.Fatalf("recovered %d jobs, want %d", got, interrupted)
	}
	ref := New(Options{Workers: 1})
	defer ref.Close()
	for i, id := range ids {
		job, err := e2.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != StatusDone {
			t.Fatalf("job %s did not finish after restart: %+v", id, job)
		}
		want, err := ref.Run(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(job.Result.StripPerf(), want.StripPerf()) {
			t.Fatalf("job %s diverged after restart:\n got %+v\nwant %+v", id, job.Result.StripPerf(), want.StripPerf())
		}
	}
}

// TestDurableCrashHelper is the victim process of the hard-kill test
// below: it opens a durable engine, submits the shared workload, and
// reports each completed job on stdout until the parent kills it. Not
// a test on its own — without the env guard it skips immediately.
func TestDurableCrashHelper(t *testing.T) {
	dir := os.Getenv("ENGINE_CRASH_DIR")
	if os.Getenv("ENGINE_CRASH_HELPER") != "1" || dir == "" {
		t.Skip("helper process of TestHardKillRestartRecovery")
	}
	e := New(Options{
		Workers:  2,
		JobDir:   filepath.Join(dir, "jobs"),
		CacheDir: filepath.Join(dir, "cache"),
	})
	specs := durableSpecs()
	ids := make([]string, len(specs))
	for i, s := range specs {
		job, err := e.Submit(s)
		if err != nil {
			t.Fatalf("helper submit: %v", err)
		}
		ids[i] = job.ID
	}
	for _, id := range ids {
		job, err := e.Wait(id)
		if err != nil {
			t.Fatalf("helper wait: %v", err)
		}
		fmt.Printf("HELPER-DONE %s %s\n", id, job.Status)
		os.Stdout.Sync()
	}
	// Never exit cleanly: the parent's SIGKILL is the only way out, so
	// the ledger is guaranteed to end mid-batch.
	select {}
}

// TestHardKillRestartRecovery is the PR's headline robustness proof: a
// child engine process is SIGKILLed mid-batch, a new engine opens the
// same JobDir/CacheDir, and the recovered batch must be byte-identical
// (StripPerf DeepEqual) to an uninterrupted reference run — with the
// unfinished jobs re-executed and every duplicate submission served
// from the ledger without recomputing.
func TestHardKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDurableCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "ENGINE_CRASH_HELPER=1", "ENGINE_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first job completes: the ledger then holds a
	// done record, a running record, and a tail of submitted-only jobs.
	sc := bufio.NewScanner(stdout)
	sawDone := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "HELPER-DONE") {
			sawDone = true
			break
		}
	}
	if !sawDone {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("helper exited before completing any job")
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill, not a verdict

	// Restart on the same directories.
	e := New(Options{
		Workers:  2,
		JobDir:   filepath.Join(dir, "jobs"),
		CacheDir: filepath.Join(dir, "cache"),
	})
	defer e.Close()
	st := e.Stats()
	if st.JobStore == nil || st.JobStore.Error != "" {
		t.Fatalf("restarted engine has no healthy ledger: %+v", st.JobStore)
	}
	if st.JobStore.JobsRecovered == 0 {
		t.Fatal("nothing recovered; the kill landed after the whole batch finished")
	}
	specs := durableSpecs()
	jobs := e.Jobs()
	if len(jobs) != len(specs) {
		t.Fatalf("restarted engine lists %d jobs, want %d", len(jobs), len(specs))
	}

	// Every job — recovered-finished or re-executed — must match the
	// uninterrupted reference exactly.
	ref := New(Options{Workers: 1})
	defer ref.Close()
	want := make(map[string]JobResult, len(specs))
	for _, s := range specs {
		res, err := ref.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		ds, _ := durableSpec(s)
		_, h, _ := canonicalSpec(ds)
		want[h] = res.StripPerf()
	}
	for _, job := range jobs {
		final, err := e.Wait(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != StatusDone {
			t.Fatalf("job %s finished %s after recovery: %s", job.ID, final.Status, final.Error)
		}
		ds, _ := durableSpec(final.Spec)
		_, h, _ := canonicalSpec(ds)
		w, ok := want[h]
		if !ok {
			t.Fatalf("job %s recovered with an unknown spec", job.ID)
		}
		if !reflect.DeepEqual(final.Result.StripPerf(), w) {
			t.Fatalf("job %s diverged after hard kill:\n got %+v\nwant %+v", job.ID, final.Result.StripPerf(), w)
		}
	}

	// Duplicate submissions: all served from the ledger, zero recomputes.
	served := e.Stats().JobsServed
	for _, s := range specs {
		dup, err := e.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		if dup.Status != StatusDone || dup.Result == nil || !dup.Result.ServedFromLedger {
			t.Fatalf("duplicate of a recovered job was not ledger-served: %+v", dup)
		}
		ds, _ := durableSpec(s)
		_, h, _ := canonicalSpec(ds)
		if !reflect.DeepEqual(dup.Result.StripPerf(), want[h]) {
			t.Fatalf("ledger-served duplicate %s differs from the reference:\n got %+v\nwant %+v", dup.ID, dup.Result.StripPerf(), want[h])
		}
	}
	st = e.Stats()
	if st.JobsServed != served {
		t.Fatalf("duplicates recomputed: served %d -> %d", served, st.JobsServed)
	}
	if st.JobStore.DedupServed != int64(len(specs)) {
		t.Fatalf("dedup served %d, want %d", st.JobStore.DedupServed, len(specs))
	}
}

func TestNonDurableJobsRunButAreNotLogged(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 1, JobDir: dir})
	spec := testJobSpec(7)
	g, err := spec.Graph.materialize(7)
	if err != nil {
		t.Fatal(err)
	}
	// A bare pre-built graph: runs, but cannot be replayed.
	job, err := e.Submit(JobSpec{Graph: GraphSpec{G: g}, Topology: "grid:4x4", Seed: 7, NumHierarchies: 4})
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("non-durable job failed: %s", done.Error)
	}
	e.Close()
	e2 := New(Options{Workers: 1, JobDir: dir})
	defer e2.Close()
	if _, ok := e2.Get(job.ID); ok {
		t.Fatal("non-durable job resurrected from the ledger")
	}
	if n := e2.Stats().JobStore.JobsRecovered; n != 0 {
		t.Fatalf("recovered %d jobs from a ledger that should be empty", n)
	}
}
