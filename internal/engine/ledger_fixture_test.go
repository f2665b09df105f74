package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ledgerFixture is a job ledger written by the engine while JobSpec
// still carried "timer_workers", which selected TIMER's batched
// hierarchy loop. It holds three jobs on a 64-vertex inline graph:
//
//	job-000001 (A)  done, plain spec
//	job-000002 (B)  done, timer_workers 4 (result from the batched loop)
//	job-000003 (C)  submitted only, timer_workers 4
//
// spec-{a,b,c}.json next to the WAL segments are the three specs'
// canonical JSON as that engine wrote it.
const ledgerFixture = "testdata/ledger-timer-workers"

// readFixtureSpec parses a fixture spec the way ledger replay does:
// leniently, so the retired field is ignored rather than refused.
func readFixtureSpec(t *testing.T, name string) JobSpec {
	t.Helper()
	body, err := os.ReadFile(filepath.Join(ledgerFixture, name))
	if err != nil {
		t.Fatal(err)
	}
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLedgerTimerWorkersFixture pins what an upgraded engine does with
// a ledger from before timer_workers was retired. Replay parses old
// specs leniently, and a done record keeps the spec hash stored with
// it. Canonical JSON no longer contains the field, so:
//   - every old ID still resolves, B's batched result included;
//   - A never set the field and hashes as before, so resubmitting A is
//     served from the ledger;
//   - B's stored hash covered the field, so a new submission of B can
//     never match it: it is recomputed, not served the batched result;
//   - C is requeued and finishes as if the field had never been set.
func TestLedgerTimerWorkersFixture(t *testing.T) {
	// jobstore.Open rotates segments: never open the testdata in place.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(ledgerFixture)); err != nil {
		t.Fatal(err)
	}
	specA := readFixtureSpec(t, "spec-a.json")
	specB := readFixtureSpec(t, "spec-b.json")
	specC := readFixtureSpec(t, "spec-c.json")

	e := New(Options{Workers: 1, JobDir: dir})
	defer e.Close()
	stored := map[string]Job{}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		job, ok := e.Get(id)
		if !ok {
			t.Fatalf("%s does not resolve after replay", id)
		}
		stored[id] = job
	}
	if st := e.Stats().JobStore; st == nil || st.Error != "" || st.JobsRecovered != 1 {
		t.Fatalf("replay: %+v, want the ledger open with exactly C requeued", st)
	}

	// A: same hash before and after the upgrade, so dedup still works.
	a := stored["job-000001"]
	if a.Status != StatusDone || a.Result == nil {
		t.Fatalf("A replayed as %s", a.Status)
	}
	served := e.Stats().JobStore.DedupServed
	dupA, err := e.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if dupA.Status != StatusDone || dupA.Result == nil || !dupA.Result.ServedFromLedger {
		t.Fatalf("resubmitted A was not served from the ledger: %+v", dupA)
	}
	if got := e.Stats().JobStore.DedupServed; got != served+1 {
		t.Fatalf("dedup_served %d -> %d, want +1", served, got)
	}
	if !reflect.DeepEqual(dupA.Result.StripPerf(), a.Result.StripPerf()) {
		t.Fatal("ledger-served A differs from the replayed A")
	}

	// B: recomputed on today's loop, never served the batched result.
	oldB := stored["job-000002"]
	if oldB.Status != StatusDone || oldB.Result == nil {
		t.Fatalf("B replayed as %s", oldB.Status)
	}
	refB, err := e.Run(specB)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(oldB.Result.StripPerf(), refB.StripPerf()) {
		t.Fatal("fixture B's batched result equals the sequential one; the fixture cannot tell a stale serve from a recompute")
	}
	withField := specB
	withField.TimerWorkers = 4
	subB, err := e.Submit(withField)
	if err != nil {
		t.Fatal(err)
	}
	newB, err := e.Wait(subB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if newB.Status != StatusDone || newB.Result.ServedFromLedger {
		t.Fatalf("resubmitted B: status %s, served from ledger %v; want a recompute",
			newB.Status, newB.Result != nil && newB.Result.ServedFromLedger)
	}
	if !reflect.DeepEqual(newB.Result.StripPerf(), refB.StripPerf()) {
		t.Fatal("recomputed B differs from Engine.Run of B without timer_workers")
	}

	// C: requeued under its original ID, finishes without the field.
	c, err := e.Wait("job-000003")
	if err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusDone {
		t.Fatalf("requeued C: %s (%s)", c.Status, c.Error)
	}
	refC, err := e.Run(specC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Result.StripPerf(), refC.StripPerf()) {
		t.Fatal("requeued C differs from Engine.Run of C without timer_workers")
	}
}
