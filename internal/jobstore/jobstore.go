// Package jobstore is the engine's durable job ledger: an append-only
// write-ahead log of job lifecycle records (submitted → running →
// done/failed, plus the drain marker interrupted) built on snapfile's
// checksummed record segments. Its contract is the one the engine's
// restart story needs:
//
//   - every lifecycle transition is appended before it is acted on, so
//     a process killed at any instant leaves a log whose longest valid
//     prefix describes exactly what the engine had promised its
//     clients;
//   - replay is total: Open never panics on a torn or bit-rotten log —
//     corrupt tails and unreadable segments shrink the recovered state,
//     never poison it (a record either verifies byte-for-byte or does
//     not exist);
//   - the log is bounded: segments rotate at a size threshold and are
//     compacted — live state rewritten into the fresh segment, sealed
//     segments deleted — so the directory's footprint tracks the live
//     ledger, not the service's lifetime job count;
//   - a finished job is small: a submitted record carries the spec the
//     job runs, a done or failed record may carry the job's finished
//     spec (the engine's has no inline edges) in its place, and
//     compaction writes each finished job as one terminal record, so
//     neither the live mirror nor a replay holds a finished job's
//     inputs.
//
// Crash safety targets process death (kill -9, OOM, panic): appends are
// single write(2) calls whose bytes survive the process, and Sync is
// exposed for callers that also want storage-level durability at
// drain/close time. Records are JSON inside the checksummed frames —
// schema evolution stays a field addition, and the checksum (not the
// parser) is what decides whether a record is real.
package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/snapfile"
)

// Segment identity: kind tags job-ledger segments inside the snapfile
// record format, kindVersion versions this package's record schema.
const (
	segKind    = 0x4a4f424c // "JOBL"
	segVersion = 1
)

// segPrefix and segExt frame segment file names: wal-<8-digit
// index>.seg. The index orders replay and only ever grows.
const (
	segPrefix = "wal-"
	segExt    = ".seg"
)

// Op is a job lifecycle transition. String-valued in JSON so a log is
// greppable during an incident.
type Op string

// The five record types: a job is submitted (with its spec and
// canonical spec hash), starts running, and finishes done (with its
// result) or failed (with its error), either optionally with its
// finished spec; interrupted marks a job a draining engine gave back
// to the log — replay requeues it exactly like a
// submitted-but-never-finished job.
const (
	OpSubmitted   Op = "submitted"
	OpRunning     Op = "running"
	OpDone        Op = "done"
	OpFailed      Op = "failed"
	OpInterrupted Op = "interrupted"
)

// Record is one WAL entry. Spec and Result stay raw JSON: the store
// moves them between log and engine without interpreting them, so the
// engine's spec/result schemas can evolve without a log format bump.
type Record struct {
	// Op is the lifecycle transition; ID the engine's job identifier.
	Op Op     `json:"op"`
	ID string `json:"id"`
	// Hash is the canonical spec hash (submitted and terminal records;
	// Failed writes none) — the idempotency key under which finished
	// results are re-served.
	Hash string `json:"hash,omitempty"`
	// Spec is the submitted JobSpec on a submitted record. On a done or
	// failed record it is the finished spec, which replaces the
	// submitted one in the mirror: the engine logs it without inline
	// edges. A terminal record without a spec (as Done and Failed
	// write) keeps the submitted spec. Compaction writes one record per
	// finished job, its terminal record with the spec the mirror holds.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Result is the finished JobResult (done records only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message (failed records only).
	Error string `json:"error,omitempty"`
}

// JobState is the replayed last-known state of one job: its submitted
// record folded together with the latest lifecycle transition.
type JobState struct {
	// ID, Hash and Spec echo the submitted record; a finished job's Spec
	// is its terminal record's, if that carries one.
	ID   string
	Hash string
	Spec json.RawMessage
	// Op is the job's last logged transition; Result and Error carry the
	// done/failed payloads.
	Op     Op
	Result json.RawMessage
	Error  string
}

// Finished reports whether the job reached a terminal state. Anything
// else — submitted, running, interrupted — is work a restarted engine
// must re-queue.
func (s *JobState) Finished() bool { return s.Op == OpDone || s.Op == OpFailed }

// Options tunes a Store. Callers pass the zero value, which selects
// every default; only this package's tests set the fields below.
type Options struct {
	// segmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	segmentBytes int64
	// compactSegments triggers compaction when a rotation would leave
	// more than this many sealed segments (default 3): live state is
	// rewritten into the fresh segment and the sealed ones are deleted.
	compactSegments int
	// retainDone bounds the finished jobs carried across compactions
	// (default 4096, oldest dropped first). Unfinished jobs are never
	// dropped.
	retainDone int
}

func (o Options) withDefaults() Options {
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	if o.compactSegments <= 0 {
		o.compactSegments = 3
	}
	if o.retainDone <= 0 {
		o.retainDone = 4096
	}
	return o
}

// Recovery is what Open replayed from an existing log: the last-known
// state of every remembered job in submission order, plus the scan
// diagnostics an operator wants after a crash.
type Recovery struct {
	// Jobs is every replayed job's final state, submission order.
	Jobs []JobState
	// Records counts the verified records replayed across all segments.
	Records int64
	// DirtyTails counts segments whose scan ended on a torn or corrupt
	// record — expected to be 0 or 1 after a clean kill, more only when
	// the directory itself was damaged.
	DirtyTails int
	// SkippedSegments counts segment files that could not be opened at
	// all (bad header, unreadable); their records are lost but replay of
	// the remaining segments proceeds.
	SkippedSegments int
}

// Store is an open job ledger. All methods are safe for concurrent
// use.
type Store struct {
	dir string
	opt Options

	mu     sync.Mutex
	w      *snapfile.RecordWriter
	seq    int      // index of the active segment
	sealed []string // sealed segment paths, oldest first

	// jobs/order mirror the live ledger for compaction: every unfinished
	// job plus the retainDone most recent finished ones. finished counts
	// the terminal subset so replay-time trimming stays O(1) per record.
	jobs     map[string]*JobState
	order    []string
	finished int
	done     map[string]string // spec hash → ID of its latest done job, for DoneID

	records     int64
	compactions int64
	appendErrs  int64
}

// Open replays the ledger in dir (creating the directory if needed),
// returns the recovered state, and starts a fresh active segment for
// new appends. Existing segments are never appended to — a torn tail
// stays where it is, harmlessly, until compaction deletes its segment.
func Open(dir string, opt Options) (*Store, *Recovery, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovery{}
	s := &Store{
		dir:  dir,
		opt:  opt,
		jobs: make(map[string]*JobState),
		done: make(map[string]string),
	}
	maxSeq := 0
	for _, name := range names {
		if idx := segmentIndex(name); idx > maxSeq {
			maxSeq = idx
		}
		res, err := snapfile.ScanRecords(filepath.Join(dir, name), segKind, segVersion)
		if err != nil {
			// An unreadable segment (foreign file, smashed header) cannot
			// contribute records, but it must not take the ledger down:
			// recovery is best-effort by design.
			rec.SkippedSegments++
			s.sealed = append(s.sealed, filepath.Join(dir, name))
			continue
		}
		if !res.Clean {
			rec.DirtyTails++
		}
		for _, body := range res.Records {
			var r Record
			if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
				// The frame checksum passed but the JSON did not parse: a
				// writer bug or version skew, not disk rot. Skip the record;
				// replay of the rest is still sound.
				continue
			}
			s.applyLocked(r)
			rec.Records++
		}
		s.sealed = append(s.sealed, filepath.Join(dir, name))
	}
	s.records = rec.Records

	s.seq = maxSeq + 1
	if err := s.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	// Compact eagerly when replay found a crowd of segments (e.g. a
	// crash loop rotating on every boot): the fresh segment gets the
	// live state and the old files go away.
	if len(s.sealed) > opt.compactSegments {
		if err := s.compactLocked(); err != nil {
			return nil, nil, err
		}
	}

	for _, id := range s.order {
		rec.Jobs = append(rec.Jobs, *s.jobs[id])
	}
	return s, rec, nil
}

// segmentNames lists dir's segment files sorted by index.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), segPrefix) || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Slice(names, func(i, j int) bool { return segmentIndex(names[i]) < segmentIndex(names[j]) })
	return names, nil
}

// segmentIndex parses the numeric index out of a segment file name; 0
// for anything malformed (sorted first, replayed first, harmless).
func segmentIndex(name string) int {
	var idx int
	fmt.Sscanf(name, segPrefix+"%d"+segExt, &idx)
	return idx
}

// segmentName renders the file name of segment idx.
func segmentName(idx int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, idx, segExt)
}

// openSegmentLocked creates the active segment for s.seq. Caller holds
// s.mu (or is still single-threaded in Open).
func (s *Store) openSegmentLocked() error {
	w, err := snapfile.CreateRecords(filepath.Join(s.dir, segmentName(s.seq)), segKind, segVersion)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	s.w = w
	return nil
}

// applyLocked folds one record into the live mirror. Later records win;
// duplicate terminal records (a compaction raced by a crash replays
// both the original and the compacted copy) are idempotent. Caller
// holds s.mu.
func (s *Store) applyLocked(r Record) {
	st, ok := s.jobs[r.ID]
	if !ok {
		if r.Op != OpSubmitted {
			// A transition for a job whose submitted record is gone (lost
			// segment, trimmed ledger). A terminal record still carries
			// everything the ledger needs; bare running/interrupted markers
			// describe a job we cannot re-run and are dropped.
			if r.Op != OpDone && r.Op != OpFailed {
				return
			}
		}
		st = &JobState{ID: r.ID}
		s.jobs[r.ID] = st
		s.order = append(s.order, r.ID)
	}
	wasFinished := st.Finished()
	switch r.Op {
	case OpSubmitted:
		// A resubmitted ID after a terminal state never happens in one
		// process (IDs are unique); a ledger compacted while compaction
		// still wrote finished jobs as the pair (submitted, done)
		// re-folds to the same state, so only the identity fields are
		// refreshed once a terminal op has landed.
		st.Hash = r.Hash
		st.Spec = r.Spec
		if !wasFinished {
			st.Op = OpSubmitted
		}
	case OpRunning, OpInterrupted:
		if !wasFinished {
			st.Op = r.Op
		}
	case OpDone, OpFailed:
		st.Op = r.Op
		if r.Hash != "" {
			st.Hash = r.Hash
		}
		if len(r.Spec) > 0 {
			st.Spec = r.Spec
		}
		st.Result = r.Result
		st.Error = r.Error
		if r.Op == OpDone && st.Hash != "" {
			s.done[st.Hash] = st.ID
		}
	}
	if !wasFinished && st.Finished() {
		s.finished++
	}
	s.trimLocked()
}

// trimLocked drops the oldest finished jobs beyond retainDone from the
// live mirror. Their log records still exist until compaction deletes
// the segments; they just stop being carried forward.
func (s *Store) trimLocked() {
	if s.finished <= s.opt.retainDone {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if st := s.jobs[id]; s.finished > s.opt.retainDone && st.Finished() {
			if s.done[st.Hash] == id {
				delete(s.done, st.Hash)
			}
			delete(s.jobs, id)
			s.finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// DoneID returns the ID of the latest done job the live mirror holds
// under the canonical spec hash: the job an identical resubmission is
// answered with instead of recomputing. It misses once that job has
// been trimmed from the mirror (see Options.retainDone).
func (s *Store) DoneID(hash string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[s.done[hash]]
	if !ok || st.Op != OpDone || st.Hash != hash {
		return "", false
	}
	return st.ID, true
}

// Append logs one record. The record is also folded into the live
// mirror, so compaction always rewrites current state. Append failures
// are returned but the store stays usable: the engine treats a dead
// log as degraded durability, not an outage.
func (s *Store) Append(r Record) error {
	body, err := appendRecord(nil, r)
	if err != nil {
		return fmt.Errorf("jobstore: encoding record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(r)
	if err := s.w.Append(body); err != nil {
		s.appendErrs++
		return fmt.Errorf("jobstore: %w", err)
	}
	s.records++
	if s.w.Size() >= s.opt.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Submitted logs a job's submission with its canonical spec hash and
// raw spec JSON.
func (s *Store) Submitted(id, hash string, spec json.RawMessage) error {
	return s.Append(Record{Op: OpSubmitted, ID: id, Hash: hash, Spec: spec})
}

// Running logs that a worker picked the job up.
func (s *Store) Running(id string) error {
	return s.Append(Record{Op: OpRunning, ID: id})
}

// Done logs a job's successful completion with its raw result JSON,
// keeping its submitted spec. Append a done record with a Spec to
// replace it.
func (s *Store) Done(id, hash string, result json.RawMessage) error {
	return s.Append(Record{Op: OpDone, ID: id, Hash: hash, Result: result})
}

// Interrupted marks a job a draining engine never started; replay
// requeues it.
func (s *Store) Interrupted(id string) error {
	return s.Append(Record{Op: OpInterrupted, ID: id})
}

// rotateLocked seals the active segment and opens the next one,
// compacting when the sealed set has grown past the threshold. Caller
// holds s.mu.
func (s *Store) rotateLocked() error {
	if err := s.w.Close(); err != nil {
		return fmt.Errorf("jobstore: sealing segment: %w", err)
	}
	s.sealed = append(s.sealed, s.w.Path())
	s.seq++
	if err := s.openSegmentLocked(); err != nil {
		return err
	}
	if len(s.sealed) > s.opt.compactSegments {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the live mirror into the (fresh) active
// segment, one record per job, then deletes every sealed segment: a
// finished job becomes its terminal record carrying its hash and spec,
// an unfinished one its submitted record, which alone requeues it.
// Crash-ordering makes this safe without a manifest: the compacted
// records are appended before any file is removed, and replay is
// idempotent under duplicates — a crash that leaves both the sealed
// originals and the compacted copies replays to the same state. A torn
// compacted segment loses whole jobs, never a finished job's terminal
// state. Caller holds s.mu.
func (s *Store) compactLocked() error {
	for _, id := range s.order {
		st := s.jobs[id]
		r := Record{Op: OpSubmitted, ID: st.ID, Hash: st.Hash, Spec: st.Spec}
		if st.Finished() {
			r.Op, r.Result, r.Error = st.Op, st.Result, st.Error
		}
		body, err := appendRecord(nil, r)
		if err != nil {
			return fmt.Errorf("jobstore: compacting %s: %w", id, err)
		}
		if err := s.w.Append(body); err != nil {
			return fmt.Errorf("jobstore: compacting %s: %w", id, err)
		}
		s.records++
	}
	if err := s.w.Sync(); err != nil {
		return fmt.Errorf("jobstore: syncing compacted segment: %w", err)
	}
	for _, path := range s.sealed {
		os.Remove(path) // best-effort; replay tolerates leftovers
	}
	s.sealed = nil
	s.compactions++
	// The compacted copy may itself have outgrown the rotation threshold
	// (huge results); let the next Append rotate rather than recursing.
	return nil
}

// Sync flushes the active segment to stable storage — the drain/close
// barrier; individual appends rely on the OS surviving the process.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Sync()
}

// Close syncs and closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}

// Stats is a point-in-time snapshot of the ledger, surfaced through
// the engine into mapd's /v1/stats.
type Stats struct {
	// Dir is the ledger directory; Segments its current file count
	// (sealed + active); Bytes the directory's segment footprint.
	Dir      string `json:"dir"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	// Records counts verified records: replayed at open plus appended
	// (and rewritten by compaction) since.
	Records int64 `json:"records"`
	// LiveJobs is the mirror size (unfinished + retained finished);
	// Unfinished the subset a restart would requeue.
	LiveJobs   int `json:"live_jobs"`
	Unfinished int `json:"unfinished"`
	// Compactions counts live-state rewrites; AppendErrors counts
	// records that could not be written (degraded durability).
	Compactions  int64 `json:"compactions"`
	AppendErrors int64 `json:"append_errors"`
}

// Stats snapshots the store's counters. Bytes walks the directory so
// it reflects compaction deletions.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	unfinished := 0
	for _, st := range s.jobs {
		if !st.Finished() {
			unfinished++
		}
	}
	bytes := s.w.Size()
	segs := 1
	for _, path := range s.sealed {
		if info, err := os.Stat(path); err == nil {
			bytes += info.Size()
			segs++
		}
	}
	return Stats{
		Dir:          s.dir,
		Segments:     segs,
		Bytes:        bytes,
		Records:      s.records,
		LiveJobs:     len(s.jobs),
		Unfinished:   unfinished,
		Compactions:  s.compactions,
		AppendErrors: s.appendErrs,
	}
}
