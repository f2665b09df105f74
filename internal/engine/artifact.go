package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// ArtifactCache memoizes expensive pipeline artifacts under
// content-addressed keys: materialized graphs (netgen generation keyed
// by canonical spec) and multilevel partitions (keyed by graph
// fingerprint, block count, imbalance and partition seed). It is the
// batch-level complement of the per-worker scratch arenas — the arenas
// make each stage allocation-free, the artifact cache eliminates whole
// redundant stages across jobs that ask for the same artifact.
//
// Three properties matter for correctness:
//
//   - values are immutable once published: a cached *graph.Graph or
//     *partition.Result is shared read-only by every job that hits it
//     (the pipeline's consumers copy before mutating — FromPartition
//     and Compose allocate fresh assignments), so eviction merely drops
//     the cache's reference; holders keep theirs and never observe the
//     backing arrays being reused;
//   - single-flight coalescing: concurrent requests for the same key
//     block on the first requester's computation instead of duplicating
//     it, and each key's builder runs exactly once per residency;
//   - failed builds are cached like the topology cache's: a
//     deterministic failure (graph too small for K, say) keeps failing
//     without re-running the build.
//
// The cache is bounded both by entry count and by the approximate byte
// footprint of its values; eviction is LRU over fully-built entries. A
// partition is *one-shot* until a second request for its key, a hit or
// a wait on its build, marks it reused: a job with a fresh partition
// seed leaves one that no later job asks for. At most
// max(1, maxEntries/8) built one-shot partitions stay resident, the
// oldest evicted first, so they cannot crowd out what is shared. The
// cache remembers the keys of the last maxEntries one-shot partitions
// it evicted, so a request for one of them, although it rebuilds, is
// its key's second and keeps the rebuilt entry as reused. Graphs are
// exempt: an evicted upload can only be uploaded again.
type ArtifactCache struct {
	mu          sync.Mutex
	entries     map[string]*artifactEntry
	order       []string // least-recently-used first
	maxEntries  int
	maxBytes    int64
	bytes       int64
	oneShots    int // built entries with oneShot set
	maxOneShots int
	// askedOnce holds the keys of evicted one-shot entries, the last
	// maxEntries of them, in eviction order in askedOrder.
	askedOnce  map[string]struct{}
	askedOrder []string

	hits          int64
	misses        int64
	inflightWaits int64
	errorHits     int64
	evictions     int64

	// disk is the optional persistent second tier (nil when the engine
	// runs memory-only). Lookup order is memory, then disk, then the
	// caller's build; both the disk consult and the write-through happen
	// inside the entry's single-flight build closure, so concurrent
	// requesters coalesce onto one disk read or one recompute regardless
	// of which tier ends up serving. Memory evictions re-spill to disk
	// and Invalidate removes both tiers' entries.
	disk *diskTier

	// fps memoizes CSR fingerprints of caller-pinned and ingested
	// graphs by pointer (see fingerprintOf).
	fpMu sync.Mutex
	fps  map[*graph.Graph]graph.Fingerprint
}

type artifactEntry struct {
	key     string
	ready   chan struct{} // closed when val/err are set
	val     any
	bytes   int64
	err     error
	oneShot bool // a partition requested once so far; guarded by the cache's mu
}

// built reports whether e's build has finished.
func (e *artifactEntry) built() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Artifact cache defaults: generous enough to hold a whole batch's
// shared partitions at paper scale, small enough that an engine idling
// after a huge run does not pin gigabytes. An eighth of the entries
// (128) may hold one-shot partitions, which only single submissions
// build: a batch's jobs, mapbench's matrices included, never do.
const (
	defaultArtifactEntries = 1024
	defaultArtifactBytes   = 256 << 20
)

// NewArtifactCache creates a cache bounded by maxEntries entries and
// maxBytes of value footprint; zero values select the defaults.
func NewArtifactCache(maxEntries int, maxBytes int64) *ArtifactCache {
	if maxEntries <= 0 {
		maxEntries = defaultArtifactEntries
	}
	if maxBytes <= 0 {
		maxBytes = defaultArtifactBytes
	}
	return &ArtifactCache{
		entries:     make(map[string]*artifactEntry),
		maxEntries:  maxEntries,
		maxBytes:    maxBytes,
		maxOneShots: max(1, maxEntries/8),
		askedOnce:   make(map[string]struct{}),
		fps:         make(map[*graph.Graph]graph.Fingerprint),
	}
}

// maxFingerprintMemo bounds the pointer→fingerprint memo: each
// memoized pointer pins its graph. 64 comfortably covers a batch's
// working set of shared instances (the pre-artifact-cache batch runner
// pinned the same graphs for its whole lifetime).
const maxFingerprintMemo = 64

// fingerprintOf returns g's 128-bit CSR fingerprint, memoized by
// pointer: batches submit the same immutable *graph.Graph to every
// rep and case, and ingested references resolve to one cached graph,
// so the O(n+m) hash runs once per instance instead of once per job.
// A graph a job builds from its own inline edges is hashed directly
// (graph.Fingerprint) and never enters the memo: no later job can
// present the same pointer, so memoizing it would only pin it. Keying
// by pointer is sound precisely because the map holds the pointer —
// the graph stays reachable, so its address can never be recycled for
// a different graph while the memo lives. At the cap the memo resets
// wholesale (epoch clear) rather than tracking recency; a stampede of
// first-time graphs merely recomputes.
func (c *ArtifactCache) fingerprintOf(g *graph.Graph) graph.Fingerprint {
	c.fpMu.Lock()
	fp, ok := c.fps[g]
	c.fpMu.Unlock()
	if ok {
		return fp
	}
	fp = g.Fingerprint() // outside the lock; concurrent first calls agree
	c.fpMu.Lock()
	if len(c.fps) >= maxFingerprintMemo {
		clear(c.fps)
	}
	c.fps[g] = fp
	c.fpMu.Unlock()
	return fp
}

// do returns the cached value for key, or runs build exactly once to
// produce it (concurrent callers for the same key wait for that one
// build). size reports the value's footprint for byte-bounded eviction.
// oneShot makes a new entry one-shot until a second request for key,
// unless key is an evicted one-shot entry's, whose rebuild is that
// second request.
func (c *ArtifactCache) do(key string, oneShot bool, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		inflight := !e.built()
		c.touchLocked(key)
		if e.oneShot {
			e.oneShot = false
			if !inflight {
				c.oneShots-- // a build in flight is not counted yet
			}
		}
		c.mu.Unlock()
		<-e.ready
		// Classify the lookup only once the outcome is known: a cached
		// *error* saved no stage work and must not inflate the hit rate —
		// it gets its own counter. Successful waits on an in-flight build
		// are the single-flight win, counted separately from plain hits.
		c.mu.Lock()
		switch {
		case e.err != nil:
			c.errorHits++
		case inflight:
			c.inflightWaits++
		default:
			c.hits++
		}
		c.mu.Unlock()
		return e.val, e.err
	}
	if oneShot {
		_, asked := c.askedOnce[key]
		oneShot = !asked
	}
	e := &artifactEntry{key: key, ready: make(chan struct{}), oneShot: oneShot}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.misses++
	c.mu.Unlock()

	// publish closes ready and accounts the entry exactly once — also on
	// a panicking build, which would otherwise leave a forever-pending
	// entry that blocks every later requester of the key (the engine's
	// runGuarded contains the panic for the building job itself, but the
	// waiters and future hits must see a completed entry, not a hang).
	publish := func() {
		c.mu.Lock()
		// ready closes under mu, so eviction, Invalidate and later
		// requests never see a built entry whose footprint or one-shot
		// place is not yet counted; and the entry cannot have been
		// evicted while building (evictLocked skips entries whose ready
		// channel is still open), so the accounting happens exactly once.
		// Builds in flight hold no place under the one-shot cap.
		close(e.ready)
		c.bytes += e.bytes
		if e.oneShot {
			c.oneShots++
		}
		spill := c.evictLocked()
		c.mu.Unlock()
		// Re-spill evicted values to the disk tier outside the lock (store
		// skips anything already persisted, so this only does IO for
		// entries the disk tier has since dropped).
		for _, ev := range spill {
			if ev.err == nil {
				c.disk.store(ev.key, ev.val)
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			e.val, e.bytes, e.err = nil, 0, fmt.Errorf("engine: artifact build for %q panicked: %v", key, r)
			publish()
			panic(r) // the building caller still observes its own panic
		}
	}()
	e.val, e.bytes, e.err = build()
	publish()
	return e.val, e.err
}

// Invalidate drops the entry under key from every tier — the in-memory
// entry (if fully built) and the disk tier's snapshot file (if any) —
// so the next request rebuilds it. In-memory entries still building are
// left alone: their waiters must observe the build's own outcome. The
// ingest layer uses this to heal cached failures (a fixed input file, a
// re-upload after eviction); removing the disk entry too is what keeps
// a healed failure from being shadowed by a stale artifact
// resurrecting from disk. Pipeline artifacts never need invalidation
// because their builds are deterministic in the key.
func (c *ArtifactCache) Invalidate(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if !e.built() {
			c.mu.Unlock()
			return // still building
		}
		c.removeLocked(slices.Index(c.order, key), e)
	}
	c.mu.Unlock()
	c.disk.remove(key)
}

// removeLocked drops the fully-built entry e, which sits at order[i],
// and its share of the bounds. Caller holds c.mu.
func (c *ArtifactCache) removeLocked(i int, e *artifactEntry) {
	delete(c.entries, e.key)
	c.order = append(c.order[:i], c.order[i+1:]...)
	c.bytes -= e.bytes
	if e.oneShot {
		c.oneShots--
	}
}

// touchLocked refreshes key's recency. Caller holds c.mu.
func (c *ArtifactCache) touchLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i], c.order[i+1:]...), key)
			return
		}
	}
}

// evictLocked drops fully-built entries while a bound is exceeded,
// returning them so the caller can re-spill their values to the disk
// tier after releasing the lock. Past the entry or byte bound it drops
// the least-recently-used entry; past the one-shot cap alone, the
// oldest one-shot partition (its only request was its build, so its
// place in order is its age). Entries still building are skipped:
// their waiters must see the close of ready, and their footprint is
// unknown. Caller holds c.mu.
func (c *ArtifactCache) evictLocked() []*artifactEntry {
	var spill []*artifactEntry
	for {
		full := len(c.order) > c.maxEntries || c.bytes > c.maxBytes
		if !full && c.oneShots <= c.maxOneShots {
			return spill
		}
		i := slices.IndexFunc(c.order, func(key string) bool {
			e := c.entries[key]
			return (full || e.oneShot) && e.built()
		})
		if i < 0 {
			return spill // everything eligible is still building
		}
		e := c.entries[c.order[i]]
		if e.oneShot {
			c.askedOnce[e.key] = struct{}{}
			c.askedOrder = append(c.askedOrder, e.key)
			if len(c.askedOrder) > c.maxEntries {
				delete(c.askedOnce, c.askedOrder[0])
				c.askedOrder = c.askedOrder[1:]
			}
		}
		c.removeLocked(i, e)
		c.evictions++
		spill = append(spill, e)
	}
}

// Graph returns the graph cached under key, building it on first use.
// With a disk tier attached, a memory miss consults disk before
// running build, and a fresh build is written through.
func (c *ArtifactCache) Graph(key string, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	v, err := c.do(key, false, func() (any, int64, error) {
		if val, bytes, ok := c.disk.load(key); ok {
			if g, isGraph := val.(*graph.Graph); isGraph {
				return g, bytes, nil
			}
		}
		g, err := build()
		if err != nil {
			return nil, 0, err
		}
		c.disk.store(key, g)
		return g, g.FootprintBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	g, ok := v.(*graph.Graph)
	if !ok {
		return nil, fmt.Errorf("engine: artifact %q holds %T, not a graph", key, v)
	}
	return g, nil
}

// Partition returns the partition cached under key, building it on
// first use as a one-shot entry. The second return reports whether the
// result came from the cache — a memory hit, a coalesced wait on
// another caller's in-flight build, or a verified disk snapshot —
// rather than from this caller's own build.
func (c *ArtifactCache) Partition(key string, build func() (*partition.Result, error)) (*partition.Result, bool, error) {
	return c.partition(key, true, build)
}

// partition is Partition; oneShot false builds an entry that is never
// one-shot, for a partition later jobs are known to ask for.
func (c *ArtifactCache) partition(key string, oneShot bool, build func() (*partition.Result, error)) (*partition.Result, bool, error) {
	var built bool
	v, err := c.do(key, oneShot, func() (any, int64, error) {
		if val, bytes, ok := c.disk.load(key); ok {
			if p, isPart := val.(*partition.Result); isPart {
				return p, bytes, nil
			}
		}
		built = true
		p, err := build()
		if err != nil {
			return nil, 0, err
		}
		c.disk.store(key, p)
		// Part dominates; the struct's scalars are noise.
		return p, int64(len(p.Part))*4 + 64, nil
	})
	if err != nil {
		return nil, !built, err
	}
	p, ok := v.(*partition.Result)
	if !ok {
		return nil, !built, fmt.Errorf("engine: artifact %q holds %T, not a partition", key, v)
	}
	return p, !built, nil
}

// ArtifactStats is a point-in-time snapshot of the cache's counters,
// served by mapd's GET /v1/stats.
type ArtifactStats struct {
	// Entries and Bytes are the cache's current footprint; CapEntries
	// and CapBytes are the configured LRU bounds (0 = unbounded).
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	CapEntries int   `json:"cap_entries"`
	CapBytes   int64 `json:"cap_bytes"`
	// Hits counts lookups served a finished value; InflightWaits counts
	// lookups coalesced onto a build in progress (the single-flight
	// savings); ErrorHits counts lookups served a cached *error* — no
	// stage work was saved, so a hit rate leaves them out; Misses
	// counts builds (including failed ones); Evictions counts entries
	// dropped by the LRU bounds or the one-shot cap.
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	ErrorHits     int64 `json:"error_hits,omitempty"`
	Evictions     int64 `json:"evictions"`
	// Disk is the persistent tier's snapshot, or nil when the engine
	// runs memory-only (no Options.CacheDir).
	Disk *DiskStats `json:"disk,omitempty"`
}

// Stats returns the cache's counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	var disk *DiskStats
	if c.disk != nil {
		ds := c.disk.stats()
		disk = &ds
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{
		Disk:          disk,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		CapEntries:    c.maxEntries,
		CapBytes:      c.maxBytes,
		Hits:          c.hits,
		Misses:        c.misses,
		InflightWaits: c.inflightWaits,
		ErrorHits:     c.errorHits,
		Evictions:     c.evictions,
	}
}
