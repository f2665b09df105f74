package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
)

// diskTier is the artifact cache's persistent second tier: a directory
// of content-addressed snapshot files (graph CSRs and partitions) that
// outlive the process. Lookup order is memory, then disk, then
// recompute; successful builds are written through, memory evictions
// re-spill anything the disk tier dropped, and Invalidate removes both
// tiers' entries. The tier is strictly best-effort — every disk
// failure (unwritable directory, corrupt file, checksum mismatch,
// version skew) degrades to a recompute, never to a wrong answer.
//
// Only deterministic, content-addressed artifacts are persisted:
// netgen graphs ("graph:net:<name>@<scale>#<seed>" — a pure function
// of the key) and partitions ("part:<graph key>|k=..|eps=..|seed=.." —
// a pure function of the key plus immutable graph content). Ingested
// references ("graph:file:<path>", "graph:upload:<fp>") are
// deliberately excluded: a path is not a content address — the file
// behind it can change between processes, and serving yesterday's
// bytes under today's path would resurrect exactly the staleness the
// ingest layer's invalidation exists to heal. Their derived partitions
// are keyed by CSR fingerprint and therefore do persist.
//
// Snapshot files store their artifact key in the codec's note field;
// a file whose note disagrees with the key that looked it up (a
// filename-hash collision, an operator shuffling files) counts as a
// verify failure and is recomputed, never served.
//
// Concurrency: multiple engines — in one process or many — may share a
// directory. Writers publish via temp-file + rename (through the
// snapfile codec), so readers never observe torn files; concurrent
// writers of one key race benignly (both files are complete, last
// rename wins, identical content either way because the artifacts are
// deterministic in the key). The in-memory index and counters are
// per-engine; file IO runs outside the lock so a large spill never
// stalls lookups.
type diskTier struct {
	dir      string
	maxBytes int64
	err      error // non-nil: the tier failed to initialize and is disabled

	mu      sync.Mutex
	entries map[string]*diskEntry // keyed by snapshot file name
	order   []string              // least-recently-used first
	bytes   int64

	hits           int64
	misses         int64
	writes         int64
	bytesWritten   int64
	evictions      int64
	verifyFailures int64
}

// diskEntry is the index record of one snapshot file.
type diskEntry struct {
	name string
	size int64
}

// defaultDiskCacheBytes bounds the cache directory when the caller
// leaves Options.DiskCacheBytes zero: big enough for thousands of
// paper-scale artifacts, small enough to not silently eat a disk.
const defaultDiskCacheBytes = 2 << 30

// snapExt is the extension of every snapshot file the tier manages;
// the sweep and the startup scan touch nothing else, so a cache
// directory can safely live next to other files.
const snapExt = ".snap"

// newDiskTier opens (creating if needed) the cache directory and
// indexes the snapshot files already in it, oldest first, so the LRU
// sweep of a restarted engine starts from the previous process's
// recency order (file mtimes) instead of treating everything as fresh.
func newDiskTier(dir string, maxBytes int64) (*diskTier, error) {
	if maxBytes <= 0 {
		maxBytes = defaultDiskCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk cache: %w", err)
	}
	t := &diskTier{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*diskEntry),
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: disk cache: %w", err)
	}
	type aged struct {
		e     *diskEntry
		mtime time.Time
	}
	var found []aged
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), snapExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent sweep; skip
		}
		found = append(found, aged{&diskEntry{name: de.Name(), size: info.Size()}, info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, a := range found {
		t.entries[a.e.name] = a.e
		t.order = append(t.order, a.e.name)
		t.bytes += a.e.size
	}
	t.sweep()
	return t, nil
}

// disabledDiskTier returns a tier that serves nothing and stores
// nothing but surfaces err through Stats, so an engine whose cache
// directory could not be opened keeps running (memory tier only) while
// /v1/stats shows the operator why restarts stay cold.
func disabledDiskTier(err error) *diskTier {
	return &diskTier{err: err}
}

// persistable reports whether key names a deterministic,
// content-addressed artifact the disk tier may serve across processes.
// See the type comment for why ingested graph references are excluded.
func persistable(key string) bool {
	return strings.HasPrefix(key, "graph:net:") || strings.HasPrefix(key, "part:")
}

// fileNameFor derives key's snapshot file name: 32 hex digits of a
// two-lane splitmix chain over the key (the graph fingerprint's
// construction, applied to bytes). Collisions are caught at load time
// by the note check, not assumed impossible.
func fileNameFor(key string) string {
	fp := graph.FingerprintBytes([]byte(key))
	return fp.String() + snapExt
}

// pathFor returns the absolute path of key's snapshot file.
func (t *diskTier) pathFor(key string) string {
	return filepath.Join(t.dir, fileNameFor(key))
}

// active reports whether the tier can serve and store at all.
func (t *diskTier) active() bool { return t != nil && t.err == nil }

// load returns the persisted artifact under key, typed by the key's
// prefix ("graph:*" → *graph.Graph, "part:*" → *partition.Result),
// with its byte footprint for the memory tier's accounting. A missing,
// corrupt, mislabeled or stale file returns ok=false — the caller
// recomputes — and corrupt files are deleted so they cannot fail every
// future lookup.
func (t *diskTier) load(key string) (val any, bytes int64, ok bool) {
	if !t.active() || !persistable(key) {
		return nil, 0, false
	}
	path := t.pathFor(key)
	var note string
	var err error
	if strings.HasPrefix(key, "part:") {
		var r *partition.Result
		r, note, err = partition.OpenResultSnapshot(path)
		if err == nil {
			val, bytes = r, int64(len(r.Part))*4+64
		}
	} else {
		var g *graph.Graph
		g, note, err = graph.OpenSnapshot(path)
		if err == nil {
			val, bytes = g, g.FootprintBytes()
		}
	}
	switch {
	case err == nil && note == key:
		t.mu.Lock()
		t.hits++
		t.touchLocked(fileNameFor(key))
		t.mu.Unlock()
		// Refresh the mtime so a *different* engine sharing the directory
		// sees this entry as recently used at its next startup scan.
		now := time.Now()
		os.Chtimes(path, now, now) // best-effort
		return val, bytes, true
	case os.IsNotExist(err):
		t.mu.Lock()
		t.misses++
		t.mu.Unlock()
		return nil, 0, false
	default:
		// Verification failed (or the note names another key): drop the
		// file so the next lookup goes straight to a recompute, and count
		// it — a rising verify_failures is an operator signal (bad disk,
		// version skew, misplaced files).
		t.mu.Lock()
		t.misses++
		t.verifyFailures++
		t.removeLocked(fileNameFor(key))
		t.mu.Unlock()
		os.Remove(path) // best-effort
		return nil, 0, false
	}
}

// store persists val under key (write-through on build, re-spill on
// memory eviction). Already-persisted keys are skipped, values the
// tier does not persist are ignored, and all failures are silent — the
// artifact stays servable from memory and recomputable forever.
func (t *diskTier) store(key string, val any) {
	if !t.active() || !persistable(key) {
		return
	}
	name := fileNameFor(key)
	t.mu.Lock()
	_, resident := t.entries[name]
	t.mu.Unlock()
	if resident {
		return
	}
	path := t.pathFor(key)
	var err error
	switch v := val.(type) {
	case *graph.Graph:
		err = v.WriteSnapshot(path, key)
	case *partition.Result:
		err = partition.WriteResultSnapshot(path, key, v)
	default:
		return
	}
	if err != nil {
		return
	}
	info, serr := os.Stat(path)
	if serr != nil {
		return
	}
	t.mu.Lock()
	if _, dup := t.entries[name]; !dup {
		t.entries[name] = &diskEntry{name: name, size: info.Size()}
		t.order = append(t.order, name)
		t.bytes += info.Size()
		t.writes++
		t.bytesWritten += info.Size()
	}
	t.mu.Unlock()
	t.sweep()
}

// remove deletes key's snapshot file, if any. Invalidate calls this so
// a healed failure (a fixed input, a re-uploaded graph) can never be
// shadowed by a stale artifact resurrecting from disk.
func (t *diskTier) remove(key string) {
	if !t.active() {
		return
	}
	name := fileNameFor(key)
	t.mu.Lock()
	t.removeLocked(name)
	t.mu.Unlock()
	os.Remove(t.pathFor(key)) // best-effort; ENOENT is fine
}

// removeLocked drops name from the index. Caller holds t.mu and
// deletes the file itself (outside the lock).
func (t *diskTier) removeLocked(name string) {
	e, ok := t.entries[name]
	if !ok {
		return
	}
	delete(t.entries, name)
	for i, n := range t.order {
		if n == name {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	t.bytes -= e.size
}

// touchLocked refreshes name's recency. Caller holds t.mu.
func (t *diskTier) touchLocked(name string) {
	for i, n := range t.order {
		if n == name {
			t.order = append(append(t.order[:i], t.order[i+1:]...), name)
			return
		}
	}
}

// sweep deletes least-recently-used snapshot files until the directory
// is back under its byte budget. File deletion happens outside the
// lock; a reader that loses the race to a deleted file sees a plain
// miss.
func (t *diskTier) sweep() {
	if !t.active() {
		return
	}
	var victims []string
	t.mu.Lock()
	for t.bytes > t.maxBytes && len(t.order) > 0 {
		name := t.order[0]
		t.removeLocked(name)
		t.evictions++
		victims = append(victims, name)
	}
	t.mu.Unlock()
	for _, name := range victims {
		os.Remove(filepath.Join(t.dir, name)) // best-effort
	}
}

// DiskStats is a point-in-time snapshot of the artifact cache's disk
// tier, nested under ArtifactStats (and with it in mapd's /v1/stats).
type DiskStats struct {
	// Dir is the cache directory; Files and Bytes its current indexed
	// footprint; CapBytes the LRU sweep's byte budget.
	Dir      string `json:"dir"`
	Files    int    `json:"files"`
	Bytes    int64  `json:"bytes"`
	CapBytes int64  `json:"cap_bytes"`
	// Hits counts lookups served from a verified snapshot file; Misses
	// counts lookups that found no usable file (absent, corrupt, stale
	// or mislabeled) and fell through to a recompute.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Writes and BytesWritten count snapshot files published
	// (write-through builds plus eviction re-spills); Evictions counts
	// files dropped by the byte-budget sweep; VerifyFailures counts
	// files rejected by checksum, version, shape or key verification —
	// rejected files are deleted and recomputed, never served.
	Writes         int64 `json:"writes"`
	BytesWritten   int64 `json:"bytes_written"`
	Evictions      int64 `json:"evictions"`
	VerifyFailures int64 `json:"verify_failures"`
	// Error is the initialization failure of a disabled tier (e.g. an
	// unwritable cache directory); empty when the tier is serving.
	Error string `json:"error,omitempty"`
}

// stats snapshots the tier's counters.
func (t *diskTier) stats() DiskStats {
	if t.err != nil {
		return DiskStats{Error: t.err.Error()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return DiskStats{
		Dir:            t.dir,
		Files:          len(t.entries),
		Bytes:          t.bytes,
		CapBytes:       t.maxBytes,
		Hits:           t.hits,
		Misses:         t.misses,
		Writes:         t.writes,
		BytesWritten:   t.bytesWritten,
		Evictions:      t.evictions,
		VerifyFailures: t.verifyFailures,
	}
}
