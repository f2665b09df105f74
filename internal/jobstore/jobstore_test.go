package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapfile"
)

// openEmpty opens a store on a fresh directory and fails the test on
// any recovery content.
func openEmpty(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 0 || rec.Records != 0 {
		t.Fatalf("fresh dir replayed state: %+v", rec)
	}
	return s, dir
}

func specJSON(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"topology":"grid:8x8","seed":%d}`, i))
}

func resultJSON(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"coco_after":%d}`, 100+i))
}

func TestLifecycleReplay(t *testing.T) {
	s, dir := openEmpty(t)
	// Three jobs: one done, one failed, one submitted-but-unfinished,
	// plus one running and one interrupted — the last three must all
	// come back unfinished.
	for i := 1; i <= 5; i++ {
		id := fmt.Sprintf("job-%06d", i)
		if err := s.Submitted(id, fmt.Sprintf("hash-%d", i), specJSON(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Running("job-000001")
	s.Done("job-000001", "hash-1", resultJSON(1))
	s.Running("job-000002")
	s.Failed("job-000002", "boom")
	s.Running("job-000004")
	s.Interrupted("job-000005")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 5 {
		t.Fatalf("replayed %d jobs, want 5", len(rec.Jobs))
	}
	byID := map[string]JobState{}
	for _, j := range rec.Jobs {
		byID[j.ID] = j
	}
	if j := byID["job-000001"]; j.Op != OpDone || string(j.Result) != string(resultJSON(1)) || j.Hash != "hash-1" {
		t.Fatalf("job 1 replayed wrong: %+v", j)
	}
	if j := byID["job-000002"]; j.Op != OpFailed || j.Error != "boom" {
		t.Fatalf("job 2 replayed wrong: %+v", j)
	}
	for _, id := range []string{"job-000003", "job-000004", "job-000005"} {
		if j := byID[id]; j.Finished() {
			t.Fatalf("%s replayed finished: %+v", id, j)
		}
		if j := byID[id]; string(j.Spec) == "" {
			t.Fatalf("%s lost its spec", id)
		}
	}
	if rec.DirtyTails != 0 || rec.SkippedSegments != 0 {
		t.Fatalf("clean log reported dirty: %+v", rec)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force constant rotation; CompactSegments 2 forces
	// compaction pressure.
	opt := Options{SegmentBytes: 1 << 10, CompactSegments: 2, RetainDone: 8}
	s, _, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%06d", i)
		if err := s.Submitted(id, fmt.Sprintf("h%d", i), specJSON(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Done(id, fmt.Sprintf("h%d", i), resultJSON(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One unfinished straggler that every compaction must carry forward.
	s.Submitted("job-straggler", "hs", specJSON(999))
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d jobs with %d-byte segments", n, opt.SegmentBytes)
	}
	if st.Bytes > 64<<10 {
		t.Fatalf("ledger grew to %d bytes despite compaction", st.Bytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The mirror carried: RetainDone finished jobs + the straggler.
	unfinished, finished := 0, 0
	for _, j := range rec.Jobs {
		if j.Finished() {
			finished++
		} else {
			unfinished++
		}
	}
	if unfinished != 1 {
		t.Fatalf("straggler lost: %d unfinished replayed", unfinished)
	}
	if finished == 0 || finished > opt.RetainDone {
		t.Fatalf("replayed %d finished jobs, want 1..%d", finished, opt.RetainDone)
	}
	// The newest finished jobs survive, the oldest are trimmed.
	wantNewest := fmt.Sprintf("job-%06d", n-1)
	found := false
	for _, j := range rec.Jobs {
		if j.ID == wantNewest {
			found = true
			if j.Op != OpDone || string(j.Result) != string(resultJSON(n-1)) {
				t.Fatalf("newest job replayed wrong: %+v", j)
			}
		}
	}
	if !found {
		t.Fatalf("newest finished job %s was trimmed", wantNewest)
	}
}

func TestRestartRotatesNeverAppends(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		s, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if err := s.Submitted(fmt.Sprintf("job-%06d", i), "h", specJSON(i)); err != nil {
			t.Fatal(err)
		}
		// No Close: simulate a kill. The OS keeps the written bytes.
	}
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rec.Jobs) != 3 {
		t.Fatalf("replayed %d jobs across restarts, want 3", len(rec.Jobs))
	}
}

// tortureState replays a record-body prefix through a fresh mirror the
// same way Open does, yielding the expected recovered state.
func tortureState(t *testing.T, bodies [][]byte) map[string]JobState {
	t.Helper()
	s := &Store{jobs: make(map[string]*JobState), opt: Options{}.withDefaults()}
	for _, b := range bodies {
		var r Record
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("pristine record failed to parse: %v", err)
		}
		s.applyLocked(r)
	}
	out := map[string]JobState{}
	for id, st := range s.jobs {
		out[id] = *st
	}
	return out
}

// diffState reports the first way the replayed jobs differ from want,
// or nil when they match job for job.
func diffState(jobs []JobState, want map[string]JobState) error {
	if len(jobs) != len(want) {
		return fmt.Errorf("recovered %d jobs, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		w, ok := want[j.ID]
		if !ok {
			return fmt.Errorf("replay resurrected job %s not in the valid prefix", j.ID)
		}
		if j.Op != w.Op || j.Error != w.Error || string(j.Result) != string(w.Result) || j.Hash != w.Hash {
			return fmt.Errorf("job %s diverged from prefix state:\n got %+v\nwant %+v", j.ID, j, w)
		}
	}
	return nil
}

// writeMixedLog writes n jobs with a varied lifecycle mix (done,
// failed, interrupted, submitted only) into a fresh ledger, closes it,
// and returns the path and bytes of its single segment.
func writeMixedLog(tb testing.TB, n int) (string, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%06d", i)
		s.Submitted(id, fmt.Sprintf("h%d", i), specJSON(i))
		switch i % 4 {
		case 0:
			s.Running(id)
			s.Done(id, fmt.Sprintf("h%d", i), resultJSON(i))
		case 1:
			s.Running(id)
			s.Failed(id, "torture failure")
		case 2:
			s.Interrupted(id)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if len(names) != 1 {
		tb.Fatalf("expected one segment, got %v", names)
	}
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return path, data
}

// TestWALTorture mirrors snapfile's corruption tests at the ledger
// level: a generated log is byte-flipped inside every record frame and
// truncated at every record boundary, and replay must never panic,
// never resurrect a corrupt record, and always recover exactly the
// state of the longest valid prefix.
func TestWALTorture(t *testing.T) {
	segPath, pristine := writeMixedLog(t, 8)
	scan, err := snapfile.ScanRecords(segPath, segKind, segVersion)
	if err != nil || !scan.Clean {
		t.Fatalf("pristine log did not scan clean: %v %+v", err, scan)
	}
	// Frame boundaries, from the verified scan.
	bounds := []int64{16} // record header size
	off := int64(16)
	for _, body := range scan.Records {
		off += 16 + (int64(len(body))+7)&^7
		bounds = append(bounds, off)
	}

	check := func(t *testing.T, mutated []byte, wantPrefix int) {
		t.Helper()
		mdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(mdir, filepath.Base(segPath)), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		ms, rec, err := Open(mdir, Options{})
		if err != nil {
			t.Fatalf("replay errored instead of recovering: %v", err)
		}
		ms.Close()
		if err := diffState(rec.Jobs, tortureState(t, scan.Records[:wantPrefix])); err != nil {
			t.Fatalf("prefix %d records: %v", wantPrefix, err)
		}
	}

	t.Run("truncate-every-boundary", func(t *testing.T) {
		for k, b := range bounds {
			check(t, pristine[:b], k)
			// One byte past the boundary: a torn frame header.
			if int(b) < len(pristine) {
				check(t, pristine[:b+1], k)
			}
		}
	})
	t.Run("flip-inside-every-record", func(t *testing.T) {
		for k := 0; k < len(bounds)-1; k++ {
			// Flip a byte at the start, middle and end of record k's frame.
			for _, at := range []int64{bounds[k], (bounds[k] + bounds[k+1]) / 2, bounds[k+1] - 1} {
				mutated := append([]byte(nil), pristine...)
				mutated[at] ^= 0x10
				check(t, mutated, k)
			}
		}
	})
	t.Run("smashed-header-is-skipped-not-fatal", func(t *testing.T) {
		mutated := append([]byte(nil), pristine...)
		mutated[0] ^= 0xff
		check(t, mutated, 0)
	})
}

func TestTornAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submitted("job-000001", "h1", specJSON(1))
	s.Done("job-000001", "h1", resultJSON(1))
	s.Submitted("job-000002", "h2", specJSON(2))
	// Tear job 2's done record 9 bytes into its frame, as a process
	// killed mid-write leaves it.
	torn := s.w.Size() + 9
	if err := s.Done("job-000002", "h2", resultJSON(2)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.w.Path(), torn); err != nil {
		t.Fatal(err)
	}
	// No Close — a killed process does not flush or seal.

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.DirtyTails != 1 {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	byID := map[string]JobState{}
	for _, j := range rec.Jobs {
		byID[j.ID] = j
	}
	if j := byID["job-000001"]; j.Op != OpDone {
		t.Fatalf("job 1 lost its completion: %+v", j)
	}
	// Job 2's done record was torn: it must come back unfinished, not
	// half-done.
	if j := byID["job-000002"]; j.Finished() {
		t.Fatalf("job 2 resurrected from a torn record: %+v", j)
	}
}

// FuzzWALReplay makes the fuzzer's bytes a ledger's only segment.
// Replay must never panic or fail, and must recover exactly the jobs
// folded from the records snapfile.ScanRecords verifies on the same
// file: none when the header is rejected. A frame's checksum covers
// its body, so every verified record is one the seed ledger wrote.
func FuzzWALReplay(f *testing.F) {
	_, pristine := writeMixedLog(f, 4)
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var verified [][]byte
		if scan, err := snapfile.ScanRecords(path, segKind, segVersion); err == nil {
			verified = scan.Records
		}
		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("replay errored instead of recovering: %v", err)
		}
		s.Close()
		if err := diffState(rec.Jobs, tortureState(t, verified)); err != nil {
			t.Fatalf("%d verified records: %v", len(verified), err)
		}
	})
}

func TestStatsShape(t *testing.T) {
	s, _ := openEmpty(t)
	s.Submitted("job-000001", "h", specJSON(1))
	s.Done("job-000001", "h", resultJSON(1))
	s.Submitted("job-000002", "h2", specJSON(2))
	st := s.Stats()
	if st.Records != 3 || st.LiveJobs != 2 || st.Unfinished != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.Bytes == 0 || st.Segments != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if !strings.HasSuffix(st.Dir, string(filepath.Separator)+filepath.Base(st.Dir)) && st.Dir == "" {
		t.Fatalf("stats dir empty")
	}
	s.Close()
}
