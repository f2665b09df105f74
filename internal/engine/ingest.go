package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/ingest"
)

// This file wires the ingest subsystem into the engine: real-world
// graph files and uploaded graph bytes become engine-resident graphs,
// addressable from job specs by reference.
//
// A reference is "file:<path>" for a server-side ingest or
// "upload:<fingerprint>" for uploaded bytes. The graph itself lives in
// the artifact cache under "graph:<ref>", right next to the "net:"
// generation artifacts, so resident ingested graphs obey the same
// entry/byte bounds as everything else the engine memoizes. The
// registry below keeps only metadata (GraphInfo) per reference —
// eviction of a "file:" graph is healed by re-ingesting the path on
// next use, eviction of an "upload:" graph surfaces as an explicit
// "re-upload" error (the engine has nowhere to re-read the bytes from).

// GraphInfo describes one ingested graph registered with the engine.
type GraphInfo struct {
	// Ref is the job-spec handle: "file:<path>" or "upload:<fp>".
	Ref string `json:"ref"`
	// Fingerprint is the content hash of the loaded CSR (hex).
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	// FootprintBytes is the resident CSR size, the graph's weight in the
	// artifact cache's byte budget.
	FootprintBytes int64 `json:"footprint_bytes"`
	// Source is the ingested path, or the client-provided name of an
	// upload.
	Source string `json:"source,omitempty"`
	// Stats is the ingest loader's account of the load (format, entries,
	// normalization counts, wall time, peak-footprint model).
	Stats  ingest.Stats `json:"stats"`
	Loaded time.Time    `json:"loaded"`
}

// ingestRecord is the registry entry behind one reference.
type ingestRecord struct {
	info GraphInfo
	path string         // non-empty for "file:" refs: where to re-ingest from
	opt  ingest.Options // options of the original load, reused on re-ingest
}

// IngestStats counts the engine's ingest activity, served by mapd's
// GET /v1/stats next to the artifact-cache counters.
type IngestStats struct {
	// Ingested counts successful loads that registered a new reference
	// (or re-registered a changed file); DedupHits counts ingests that
	// found their content already registered.
	Ingested  int64 `json:"ingested"`
	DedupHits int64 `json:"dedup_hits"`
	// Reingests counts "file:" graphs rebuilt from disk after cache
	// eviction; Errors counts failed loads.
	Reingests int64 `json:"reingests"`
	Errors    int64 `json:"errors"`
	// Registered is the current registry size; BytesIngested sums the
	// input bytes of successful loads.
	Registered    int   `json:"registered"`
	BytesIngested int64 `json:"bytes_ingested"`
}

// graphKeyOf is the artifact-cache key of an ingested reference.
func graphKeyOf(ref string) string { return "graph:" + ref }

// register publishes a load under ref (overwriting any previous record:
// an explicit re-ingest of a changed file updates the registration).
func (e *Engine) register(ref, path, source string, res *ingest.Result, opt ingest.Options) GraphInfo {
	info := GraphInfo{
		Ref:            ref,
		Fingerprint:    res.Fingerprint.String(),
		N:              res.Graph.N(),
		M:              res.Graph.M(),
		FootprintBytes: res.Graph.FootprintBytes(),
		Source:         source,
		Stats:          res.Stats,
		Loaded:         time.Now(),
	}
	rec := &ingestRecord{info: info, path: path, opt: opt}
	e.ingestMu.Lock()
	if e.ingests == nil {
		e.ingests = make(map[string]*ingestRecord)
	}
	e.ingests[ref] = rec
	e.ingestStats.Ingested++
	e.ingestStats.BytesIngested += res.Stats.Bytes
	e.ingestMu.Unlock()
	return info
}

func (e *Engine) ingestError() {
	e.ingestMu.Lock()
	e.ingestStats.Errors++
	e.ingestMu.Unlock()
}

func (e *Engine) ingestDedup() {
	e.ingestMu.Lock()
	e.ingestStats.DedupHits++
	e.ingestMu.Unlock()
}

// IngestPath loads a graph file from the server's filesystem and
// registers it under "file:<path>". Concurrent ingests of the same path
// coalesce on one load (single-flight through the artifact cache); a
// repeated ingest of a resident path is a dedup hit that returns the
// existing registration without touching the file.
func (e *Engine) IngestPath(path string, opt ingest.Options) (GraphInfo, error) {
	ref := "file:" + path
	var loaded *ingest.Result
	build := func() (*graph.Graph, error) {
		res, err := ingest.LoadFile(path, opt)
		if err != nil {
			e.ingestError()
			return nil, err
		}
		loaded = res
		e.register(ref, path, path, res, opt)
		return res.Graph, nil
	}
	_, err := e.artifacts.Graph(graphKeyOf(ref), build)
	if err != nil && loaded == nil {
		// A previously failed ingest of this path is cached as an error;
		// the file may have been fixed since, so retry once with a fresh
		// entry instead of serving the stale failure forever.
		e.artifacts.Invalidate(graphKeyOf(ref))
		_, err = e.artifacts.Graph(graphKeyOf(ref), build)
	}
	if err != nil {
		return GraphInfo{}, err
	}
	if loaded == nil {
		// Cache hit or coalesced onto a concurrent load: the registration
		// already exists.
		e.ingestDedup()
	}
	e.ingestMu.Lock()
	rec, ok := e.ingests[ref]
	e.ingestMu.Unlock()
	if !ok {
		return GraphInfo{}, fmt.Errorf("engine: ingest of %s lost its registration", path)
	}
	return rec.info, nil
}

// IngestSpool loads an uploaded graph (mapd's POST /v1/graphs body)
// that the caller spooled to a file and registers it under
// "upload:<fingerprint>" — the reference is the content address, so
// uploading the same bytes twice (under any name) dedups onto one
// registration and one cache entry. The bool reports whether the
// content was already registered. The upload is parsed straight off
// the spool in the loader's two passes and never has to be resident as
// one contiguous byte slice. The spool file belongs to the caller (mapd
// deletes it after this returns); the registration keeps no path, so an
// evicted upload must be uploaded again rather than re-read from a
// temp file that no longer exists.
func (e *Engine) IngestSpool(name, path string, opt ingest.Options) (GraphInfo, bool, error) {
	res, err := ingest.LoadFileAs(name, path, opt)
	if err != nil {
		e.ingestError()
		return GraphInfo{}, false, err
	}
	ref := "upload:" + res.Fingerprint.String()
	e.ingestMu.Lock()
	existing, dup := e.ingests[ref]
	e.ingestMu.Unlock()

	// Insert (or refresh after eviction) the loaded graph. On a repeat
	// upload the entry is already resident and this is a plain cache
	// hit; a cached error under the key (an evicted upload that a job
	// tried to use) is healed by the fresh bytes.
	insert := func() (*graph.Graph, error) { return res.Graph, nil }
	if _, err := e.artifacts.Graph(graphKeyOf(ref), insert); err != nil {
		e.artifacts.Invalidate(graphKeyOf(ref))
		if _, err := e.artifacts.Graph(graphKeyOf(ref), insert); err != nil {
			return GraphInfo{}, false, err
		}
	}
	if dup {
		e.ingestDedup()
		return existing.info, true, nil
	}
	return e.register(ref, "", name, res, opt), false, nil
}

// GraphByRef resolves an ingested reference to its graph. "file:"
// graphs evicted from the artifact cache are re-ingested from their
// path (and must still hash to the registered fingerprint); evicted
// "upload:" graphs must be uploaded again.
func (e *Engine) GraphByRef(ref string) (*graph.Graph, error) {
	e.ingestMu.Lock()
	rec, ok := e.ingests[ref]
	e.ingestMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown graph ref %q (ingest it first; see /v1/graphs)", ref)
	}
	return e.artifacts.Graph(graphKeyOf(ref), func() (*graph.Graph, error) {
		if rec.path == "" {
			return nil, fmt.Errorf("engine: uploaded graph %s was evicted from the cache; upload it again", ref)
		}
		res, err := ingest.LoadFile(rec.path, rec.opt)
		if err != nil {
			e.ingestError()
			return nil, fmt.Errorf("engine: re-ingest of %s: %w", rec.path, err)
		}
		if got := res.Fingerprint.String(); got != rec.info.Fingerprint {
			return nil, fmt.Errorf("engine: %s changed on disk since ingest (fingerprint %s, registered %s); ingest it again",
				rec.path, got, rec.info.Fingerprint)
		}
		e.ingestMu.Lock()
		e.ingestStats.Reingests++
		e.ingestMu.Unlock()
		return res.Graph, nil
	})
}

// GraphInfo returns the registration of one ingested reference.
func (e *Engine) GraphInfo(ref string) (GraphInfo, bool) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	rec, ok := e.ingests[ref]
	if !ok {
		return GraphInfo{}, false
	}
	return rec.info, true
}

// Graphs lists all ingested registrations, uploads and files alike,
// sorted by reference for stable output.
func (e *Engine) Graphs() []GraphInfo {
	e.ingestMu.Lock()
	out := make([]GraphInfo, 0, len(e.ingests))
	for _, rec := range e.ingests {
		out = append(out, rec.info)
	}
	e.ingestMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Ref < out[j].Ref })
	return out
}

// IngestSnapshot returns the ingest counters, or ok=false when the
// engine has never seen an ingest (so /v1/stats omits the section
// entirely for engines not using the subsystem).
func (e *Engine) IngestSnapshot() (IngestStats, bool) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	st := e.ingestStats
	st.Registered = len(e.ingests)
	active := st.Ingested != 0 || st.DedupHits != 0 || st.Errors != 0 || st.Registered != 0
	return st, active
}
